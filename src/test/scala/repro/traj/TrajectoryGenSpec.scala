package repro.traj

import repro.roadnet.{CostType, RoadNetGen}
import repro.{SparkSpec, TestNets}

class TrajectoryGenSpec extends SparkSpec {

  private val net = TestNets.smallGrid(16, 12)
  private val cfg = TrajectoryGen.Config(nTrips = 300, nDrivers = 10, nZones = 5,
    zoneRadiusKm = 0.8, seed = 21L)
  private lazy val trips = TrajectoryGen.generateLocal(net, cfg)

  test("generates the requested number of trips (minus unroutable)") {
    assert(trips.size > 250 && trips.size <= 300)
  }

  test("every trip path is a valid road-network path") {
    assert(trips.forall(t => net.isValidPath(t.path.toVector)))
  }

  test("every trip has at least one edge and distinct endpoints") {
    assert(trips.forall(t => t.path.length >= 2 && t.path.head != t.path.last))
  }

  test("generation is deterministic") {
    val again = TrajectoryGen.generateLocal(net, cfg)
    assert(again.map(_.path) === trips.map(_.path))
  }

  test("trip ids are unique and time-ordered") {
    assert(trips.map(_.id).distinct.size === trips.size)
    assert(trips.map(_.id) === trips.map(_.id).sorted)
  }

  test("drivers are within range") {
    assert(trips.forall(t => t.driver >= 0 && t.driver < cfg.nDrivers))
  }

  test("observed travel times are positive and near the path TT") {
    trips.foreach { t =>
      val base = net.pathCost(t.path.toVector, _.tt)
      assert(t.ttActual > 0.3 * base && t.ttActual < 3.0 * base)
    }
  }

  test("zones are spread out and non-empty") {
    val zones = TrajectoryGen.makeZones(net, cfg)
    assert(zones.size === cfg.nZones)
    assert(zones.forall(_.members.nonEmpty))
    for (a <- zones; b <- zones if a.id < b.id)
      assert(net.euclid(a.center, b.center) > 0.0)
  }

  test("OD demand is skewed (Zipf): top zone-pair covers many trips") {
    val zones = TrajectoryGen.makeZones(net, cfg)
    val zoneOf = zones.flatMap(z => z.members.map(_ -> z.id)).toMap
    val pairs = trips.flatMap { t =>
      for (a <- zoneOf.get(t.path.head); b <- zoneOf.get(t.path.last)) yield (a, b)
    }
    val counts = pairs.groupBy(identity).view.mapValues(_.size).values.toSeq.sorted.reverse
    assert(counts.head > counts.sum / counts.size, "the hottest pair should beat the mean")
  }

  test("zone-pair preferences are deterministic and long trips prefer TT") {
    val p1 = TrajectoryGen.zonePref(1, 2, 3.0, 8.0, 42L)
    val p2 = TrajectoryGen.zonePref(1, 2, 3.0, 8.0, 42L)
    assert(p1 === p2)
    assert(TrajectoryGen.zonePref(0, 1, 100.0, 8.0, 42L).master === CostType.TT)
  }

  test("driver preferences are deterministic per driver") {
    assert(TrajectoryGen.driverPref(3, 1L) === TrajectoryGen.driverPref(3, 1L))
  }

  test("train/test split respects the time order") {
    val (train, test) = TrajectoryGen.split(trips, cfg.trainFrac)
    assert(train.size + test.size === trips.size)
    assert(train.nonEmpty && test.nonEmpty)
    assert(train.map(_.id).max < test.map(_.id).min)
  }

  test("distributed generation matches local generation") {
    val ds = TrajectoryGen.generate(spark, net, cfg).collect().toSeq.sortBy(_.id)
    assert(ds.size === trips.size)
    assert(ds.map(_.id) === trips.map(_.id))
    assert(ds.map(_.driver) === trips.map(_.driver))
    assert(ds.map(_.path) === trips.map(_.path))
    assert(ds.map(t => java.lang.Double.doubleToRawLongBits(t.ttActual)) ===
      trips.map(t => java.lang.Double.doubleToRawLongBits(t.ttActual)))
  }

  test("trips are not simply shortest or fastest paths in aggregate") {
    val different = trips.count { t =>
      val p = t.path.toVector
      val sp = net.dijkstra(p.head, p.last, _.dist).get
      val fp = net.dijkstra(p.head, p.last, _.tt).get
      p != sp || p != fp
    }
    assert(different > trips.size / 4, "preference-driven trips must deviate from cost-centric optima")
  }

  test("background trips leave some vertices uncovered") {
    val covered = trips.flatMap(_.path).toSet
    assert(covered.size < net.n, "sparse coverage is required for the OutRegion category")
  }

  test("D1/D2-style configs produce mostly-long vs mostly-short trips") {
    val d1net = RoadNetGen.grid(RoadNetGen.Config(24, 18, spacingKm = 1.2, seed = 1))
    val d1 = TrajectoryGen.generateLocal(d1net, cfg.copy(zoneRadiusKm = 3.0, longDistKm = 15.0, seed = 33L))
    val kmD1 = d1.map(t => d1net.pathLength(t.path.toVector))
    val km = trips.map(t => net.pathLength(t.path.toVector))
    assert(kmD1.sum / kmD1.size > km.sum / km.size)
  }
}
