package repro.traj

import org.apache.spark.sql.{Dataset, SparkSession}
import repro.roadnet._
import repro.util.DriverPool

/** A map-matched trip: the road-network path a driver actually followed,
  * plus the observed door-to-door travel time (minutes). `id` doubles as a
  * time order, so the train/test split by id mirrors the paper's split by
  * calendar time.
  */
final case class Trip(id: Long, driver: Int, path: Seq[Int], ttActual: Double)

/** A trip blueprint: everything needed to route it deterministically on an
  * executor holding the broadcast road network. Spark encodes blueprints,
  * so the trip's preference is held as its [[Preference.code]].
  */
final case class TripSpec(id: Long, driver: Int, src: Int, dst: Int, prefCode: Int, ttFactor: Double) {
  def pref: Preference = Preference.fromCode(prefCode)
}

/** A demand hot-spot: trips start/end near zone centres with Zipf-skewed
  * popularity, which produces the paper's central premise — trajectory sets
  * that are *sparse and skewed* over (s,d) pairs.
  */
final case class Zone(id: Int, center: Int, members: Array[Int], weight: Double)

/** Preference-driven synthetic trajectory generator (substitute for the
  * paper's proprietary GPS sets D1/D2, see DESIGN.md).
  *
  * Each (source zone, destination zone) pair carries a latent routing
  * preference ⟨master, slave⟩; trips between the zones follow the
  * preference-optimal path (the paper's Algorithm 2), so held-out trips are
  * genuinely "local-driver" paths that are neither shortest nor fastest in
  * general. A fraction of trips follow the driver's personal preference
  * instead (noise that personalised baselines can pick up), and a fraction
  * is uniform background traffic so some vertices stay uncovered
  * (→ OutRegion evaluation category).
  */
object TrajectoryGen {

  /** The shape of a generated trip set. A zone trip follows its driver's
    * own preference with the fixed probability `PDriverOverride` (0.12), and
    * its zone pair's latent preference otherwise.
    */
  final case class Config(
      nTrips: Int = 2000,
      nDrivers: Int = 40,
      nZones: Int = 8,
      zoneRadiusKm: Double = 1.0,
      seed: Long = 42L,
      /** probability of a uniform background trip (sparse coverage) */
      pBackground: Double = 0.1,
      /** zone-pair centroid distance beyond which TT is always preferred */
      longDistKm: Double = 8.0,
      /** destination-zone sampling decays as exp(−dist/σ): most demand is
        * local (the paper's D1 has 91.6% of trips under 10 km) */
      distDecayKm: Double = Double.PositiveInfinity,
      /** fraction of trips (by id order) used for training */
      trainFrac: Double = 0.75)

  /** Probability that a zone trip follows its driver's own preference. */
  private val PDriverOverride = 0.12

  import RoadNetGen.{mix, unit}

  /** Latent routing preference of a (source zone, destination zone) pair.
    * Deterministic and symmetric in the unordered zone pair (our region
    * graph is undirected, so demand preferences are direction-free);
    * long-distance pairs prefer TT (the "highways for long trips"
    * behaviour in the paper's data).
    */
  def zonePref(zs0: Int, zd0: Int, centroidDistKm: Double, longDistKm: Double, seed: Long): Preference = {
    val zs = math.min(zs0, zd0); val zd = math.max(zs0, zd0)
    val h = mix(seed * 31 + zs * 1009 + zd)
    val master =
      if (centroidDistKm > longDistKm) CostType.TT
      else CostType.all(((h & 0x7fffffffL) % 3).toInt)
    val h2 = mix(h)
    // ~40% of zone pairs prefer an arterial class; long trips lean on
    // motorway/trunk, short trips on trunk/primary (dense enough that the
    // detour stays proportionate — residential-class slaves would force
    // unrealistic weaving)
    val slave =
      if (((h2 & 0x7fffffffL) % 5) < 2) {
        val base = if (centroidDistKm > longDistKm) 1 else 2
        Some(base + ((h2 >>> 2) % 2).toInt)
      } else None
    Preference(master, slave)
  }

  /** A driver's personal preference (used on override trips). */
  def driverPref(driver: Int, seed: Long): Preference = {
    val h = mix(seed * 77 + driver)
    Preference(CostType.all(((h & 0x7fffffffL) % 3).toInt), None)
  }

  /** Place `nZones` spread-out zones; members are vertices within the
    * radius of the zone's centre vertex.
    */
  def makeZones(net: RoadNetwork, cfg: Config): Seq[Zone] = {
    val rnd = new scala.util.Random(cfg.seed)
    val centers = scala.collection.mutable.ArrayBuffer.empty[Int]
    val extentX = net.vertices.map(_.x).max - net.vertices.map(_.x).min
    val extentY = net.vertices.map(_.y).max - net.vertices.map(_.y).min
    val minSep = 0.5 * math.sqrt(extentX * extentY / math.max(1, cfg.nZones))
    var attempts = 0
    while (centers.size < cfg.nZones && attempts < 10000) {
      val cand = rnd.nextInt(net.n)
      val ok = centers.forall(c => net.euclid(c, cand) >= minSep)
      if (ok) centers += cand
      attempts += 1
    }
    centers.zipWithIndex.map { case (c, i) =>
      val members = net.vertices.filter(v => net.euclid(c, v.id) <= cfg.zoneRadiusKm).map(_.id)
      Zone(i, c, if (members.isEmpty) Array(c) else members, 1.0 / (i + 1)) // Zipf(1) popularity
    }.toSeq
  }

  private def sampleZipf(rnd: scala.util.Random, weights: Array[Double]): Int = {
    val total = weights.sum
    var x = rnd.nextDouble() * total
    var i = 0
    while (i < weights.length - 1 && x > weights(i)) { x -= weights(i); i += 1 }
    i
  }

  /** Build the deterministic trip blueprints (cheap, driver-side). */
  def specs(net: RoadNetwork, cfg: Config): (Seq[Zone], Seq[TripSpec]) = {
    val zones = makeZones(net, cfg)
    val rnd = new scala.util.Random(cfg.seed + 1)
    val weights = zones.map(_.weight).toArray
    val out = Vector.newBuilder[TripSpec]
    var id = 0L
    while (id < cfg.nTrips) {
      val driver = rnd.nextInt(cfg.nDrivers)
      val background = rnd.nextDouble() < cfg.pBackground
      val (src, dst, pref) =
        if (background) {
          val s = rnd.nextInt(net.n); var d = rnd.nextInt(net.n)
          while (d == s) d = rnd.nextInt(net.n)
          (s, d, driverPref(driver, cfg.seed))
        } else {
          val zs = sampleZipf(rnd, weights)
          // destination demand decays with distance (same-zone trips allowed)
          val dWeights = zones.indices.map { j =>
            val dist = net.euclid(zones(zs).center, zones(j).center)
            weights(j) * (if (cfg.distDecayKm.isPosInfinity) 1.0 else math.exp(-dist / cfg.distDecayKm))
          }.toArray
          var zd = sampleZipf(rnd, dWeights)
          if (zd == zs && zones(zs).members.length < 2) zd = (zs + 1) % zones.size
          val s = zones(zs).members(rnd.nextInt(zones(zs).members.length))
          var d = zones(zd).members(rnd.nextInt(zones(zd).members.length))
          if (d == s) d = zones(zd).members((rnd.nextInt(zones(zd).members.length)))
          val p =
            if (rnd.nextDouble() < PDriverOverride) driverPref(driver, cfg.seed)
            else zonePref(zs, zd, net.euclid(zones(zs).center, zones(zd).center), cfg.longDistKm, cfg.seed)
          (s, d, p)
        }
      if (src != dst) {
        // driver-specific pace × lognormal-ish noise on the observed time
        val ttFactor = (0.85 + 0.4 * unit(mix(cfg.seed + driver))) *
          math.exp(0.1 * (rnd.nextGaussian() min 3.0 max -3.0))
        out += TripSpec(id, driver, src, dst, Preference.code(pref), ttFactor)
        id += 1
      }
    }
    (zones, out.result())
  }

  /** Route one blueprint into a trip (on an executor or a driver thread). */
  def routeSpec(net: RoadNetwork, s: TripSpec): Option[Trip] = {
    net.prefDijkstra(s.src, s.dst, s.pref).filter(_.length >= 2).map { p =>
      Trip(s.id, s.driver, p, net.pathCost(p, _.tt) * s.ttFactor)
    }
  }

  /** Distributed generation: blueprints fan out over executors that hold the
    * broadcast network and run the preference-aware Dijkstra. l2rbench
    * generates its trips here; [[generateLocal]] gives the same trips
    * without Spark.
    */
  def generate(spark: SparkSession, net: RoadNetwork, cfg: Config): Dataset[Trip] = {
    import spark.implicits._
    val (_, sp) = specs(net, cfg)
    val bc = spark.sparkContext.broadcast(net)
    spark.createDataset(sp).flatMap(s => routeSpec(bc.value, s))
  }

  /** Driver-side generation, without Spark: the blueprints are routed on
    * the [[DriverPool]], and the trips come in blueprint (id) order, the
    * trips of [[generate]].
    */
  def generateLocal(net: RoadNetwork, cfg: Config): Seq[Trip] =
    DriverPool.map(specs(net, cfg)._2.toIndexedSeq, DriverPool.Threads)(routeSpec(net, _)).flatten

  /** Time-ordered train/test split (first `trainFrac` of ids train). */
  def split(trips: Seq[Trip], trainFrac: Double): (Seq[Trip], Seq[Trip]) = {
    val cut = (trips.map(_.id).maxOption.getOrElse(0L) * trainFrac).toLong
    trips.partition(_.id <= cut)
  }
}
