package l2rbench

import repro.roadnet.RoadNetGen
import repro.traj.TrajectoryGen

/** Tests of the benchmark's own logic: the percentile helper, span self
  * time, and the query-stream properties. No Spark; run with
  * `python3 l2rbench/run.py --self-test`.
  */
object SelfTest {
  private var failures = 0
  private var passed = 0

  private def test(name: String)(body: => Unit): Unit =
    try { body; passed += 1; println(s"ok   $name") }
    catch { case e: Throwable => failures += 1; println(s"FAIL $name: $e") }

  private def eq[A](got: A, want: A): Unit = assert(got == want, s"got $got, want $want")

  def main(args: Array[String]): Unit = {
    test("nearest-rank percentile") {
      val xs = (1L to 100L).toArray
      eq(Stats.percentile(xs, 50), 50L)
      eq(Stats.percentile(xs, 99), 99L)
      eq(Stats.percentile(xs, 100), 100L)
      eq(Stats.percentile(Array(7L), 99.9), 7L)
      eq(Stats.percentile((1L to 1000L).toArray, 99.9), 999L)
    }
    test("tail percentile keeps at least ten samples beyond it") {
      eq(Stats.tailPercentile(1000), Some(99.0))
      eq(Stats.tailPercentile(999), Some(95.0))
      eq(Stats.tailPercentile(10000), Some(99.9))
      eq(Stats.tailPercentile(100000), Some(99.99))
      eq(Stats.tailPercentile(20), Some(50.0))
      eq(Stats.tailPercentile(19), None)
      for (n <- 20 to 5000; p <- Stats.tailPercentile(n)) assert(Stats.beyond(n, p) >= 10, s"n=$n p=$p")
    }
    test("median") {
      eq(Stats.median(Seq(3.0, 1.0, 2.0)), 2.0)
      eq(Stats.median(Seq(4.0, 1.0, 2.0, 3.0)), 2.5)
    }
    test("self time is the span minus the union of its children") {
      eq(Tracer.selfTime(0, 100, Nil), 100L)
      eq(Tracer.selfTime(0, 100, Seq((10L, 20L), (30L, 60L))), 60L)
      eq(Tracer.selfTime(0, 100, Seq((10L, 50L), (40L, 70L))), 40L)
      eq(Tracer.selfTime(0, 100, Seq((20L, 30L), (10L, 40L))), 70L)
      eq(Tracer.selfTime(10, 20, Seq((0L, 15L), (18L, 40L))), 3L)
    }
    test("tracer nests spans and computes self time from its children") {
      val t = new Tracer
      val root = t.begin("query")
      t.span("a")(Thread.sleep(2))
      val b = t.begin("b"); t.span("c")(Thread.sleep(1)); t.end(b)
      t.end(root)
      eq(t.count, 4)
      eq(t.parent(root), -1)
      eq(t.ids("a").map(t.parent), IndexedSeq(root))
      eq(t.ids("c").map(t.root), IndexedSeq(root))
      val self = t.selfNanos()
      val kids = t.ids("a") ++ t.ids("b")
      assert(self(root) == t.nanos(root) - kids.map(t.nanos).sum, "root self time")
      assert(self(b) == t.nanos(b) - t.ids("c").map(t.nanos).sum, "child self time")
      assert(self.forall(_ >= 0))
    }

    val net = RoadNetGen.grid(RoadNetGen.Config(cols = 20, rows = 14, spacingKm = 0.4, seed = 3L))
    val cfg = TrajectoryGen.Config(nTrips = 200, nDrivers = 10, nZones = 5, zoneRadiusKm = 1.0, seed = 9L)
    val scenarioTrips = TrajectoryGen.generateLocal(net, cfg)
    val extended = TrajectoryGen.generateLocal(net, cfg.copy(nTrips = cfg.nTrips + 300))
    test("trip specs are prefix-stable in nTrips") {
      eq(TrajectoryGen.specs(net, cfg.copy(nTrips = 500))._2.take(200), TrajectoryGen.specs(net, cfg)._2)
      eq(extended.filter(_.id < cfg.nTrips), scenarioTrips)
    }
    test("demand stream trains on the scenario's training set") {
      val (train, _) = Streams.splitDemand(extended, cfg.nTrips, cfg.trainFrac, seed = 1L, nQueries = 100)
      eq(train, TrajectoryGen.split(scenarioTrips, cfg.trainFrac)._1.toIndexedSeq)
    }
    test("demand queries are seeded, sized and disjoint from training") {
      val (train, q1) = Streams.splitDemand(extended, cfg.nTrips, cfg.trainFrac, seed = 1L, nQueries = 100)
      val (_, q1b) = Streams.splitDemand(extended, cfg.nTrips, cfg.trainFrac, seed = 1L, nQueries = 100)
      val (_, q2) = Streams.splitDemand(extended, cfg.nTrips, cfg.trainFrac, seed = 2L, nQueries = 100)
      eq(q1, q1b)
      assert(q1 != q2, "another seed draws another stream")
      eq(q1.size, 100)
      eq(q1.map(_.id).distinct.size, 100)
      val lastTrain = train.map(_.id).max
      assert(q1.forall(_.id > lastTrain) && q2.forall(_.id > lastTrain), "query id in the training range")
    }
    test("uniform queries are a seeded sample of background trips past the training ids") {
      val ucfg = Streams.uniformConfig(cfg).copy(nTrips = 80)
      eq(ucfg.pBackground, 1.0)
      assert(ucfg.seed != cfg.seed, "the pool has its own generator seed")
      val pool = TrajectoryGen.generateLocal(net, ucfg)
      val qs = Streams.sampleUniform(pool, cfg.nTrips.toLong, seed = 4L, nQueries = 50)
      eq(qs.size, 50)
      eq(qs.map(_.id).distinct.size, 50)
      assert(qs.forall(_.id >= cfg.nTrips), "query id in the training range")
      eq(qs, Streams.sampleUniform(pool, cfg.nTrips.toLong, seed = 4L, nQueries = 50))
      assert(qs != Streams.sampleUniform(pool, cfg.nTrips.toLong, seed = 5L, nQueries = 50))
      eq(qs.map(_.path).toSet.subsetOf(pool.map(_.path).toSet), true)
    }

    println(s"$passed passed, $failures failed")
    sys.exit(if (failures == 0) 0 else 1)
  }
}
