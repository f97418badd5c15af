package repro.eval

import repro.baselines.{Baselines, Router}
import repro.core.{Clustering, RegionGraphIndex}
import repro.traj.Trip
import repro.{Oracle, SparkSpec, TestNets}

class EvaluatorSpec extends SparkSpec {
  import spark.implicits._

  private val net = TestNets.line(10)
  private val index = {
    val regions = Seq(Clustering.Region(0, Set(0, 1, 2)), Clustering.Region(1, Set(7, 8, 9)))
    new RegionGraphIndex(regions.map(repro.core.RegionGraph.regionInfo(net, _, Array.empty, 2)), Nil, Nil)
  }

  test("categorize distinguishes the three categories") {
    assert(Evaluator.categorize(index, 0, 8) === "InRegion")
    assert(Evaluator.categorize(index, 0, 5) === "InOutRegion")
    assert(Evaluator.categorize(index, 5, 1) === "InOutRegion")
    assert(Evaluator.categorize(index, 4, 5) === "OutRegion")
  }

  private val trips = Seq(
    Trip(0, 0, Seq(0, 1, 2, 3), 1),     // 3 km, InOutRegion
    Trip(1, 0, Seq(0, 1, 2, 3, 4, 5, 6, 7), 1), // 7 km, InRegion
    Trip(2, 1, Seq(4, 5), 1))           // 1 km, OutRegion

  test("evaluate produces one row per (trip, router)") {
    val routers: Seq[Router] = Seq(new Baselines.Shortest(net), new Baselines.Fastest(net))
    val rows = Evaluator.evaluate(net, index, routers, trips)
    assert(rows.length === trips.size * routers.size)
    assert(rows.map(r => (r.tripId, r.algo)) === trips.flatMap(t => routers.map(r => (t.id, r.name))))
    assert(rows.map(_.algo).toSet === Set("Shortest", "Fastest"))
  }

  test("on a line all routers find the ground truth exactly") {
    val rows = Evaluator.evaluate(net, index, Seq(new Baselines.Fastest(net)), trips)
    rows.foreach { r => assert(r.sim1 === 1.0); assert(r.sim2 === 1.0) }
  }

  test("gtKm and category are recorded") {
    val rows = Evaluator.evaluate(net, index, Seq(new Baselines.Fastest(net)), trips)
    assert(math.abs(rows(0).gtKm - 3.0) < 1e-9)
    assert(rows(0).category === "InOutRegion")
    assert(rows(1).category === "InRegion")
    assert(rows(2).category === "OutRegion")
  }

  test("bucket assigns half-open (lo,hi] buckets") {
    val got = Seq(0.0, 0.5, 2.0, 2.1, 5.0, 34.9, 40.0).map(Evaluator.bucket(_, Seq(0, 2, 5, 10, 35)))
    assert(got === Seq(Evaluator.OutOfRange, "(0,2]", "(0,2]", "(2,5]", "(2,5]", "(10,35]", Evaluator.OutOfRange))
  }

  private val bounds = Seq[Double](0, 2, 5, 10, 35)

  /** DuckDB's own bucket of a `km` column over `bounds`. */
  private val bucketSql =
    "CASE WHEN CAST(km AS DOUBLE) > 0 AND CAST(km AS DOUBLE) <= 2 THEN '(0,2]' " +
    "WHEN CAST(km AS DOUBLE) > 2 AND CAST(km AS DOUBLE) <= 5 THEN '(2,5]' " +
    "WHEN CAST(km AS DOUBLE) > 5 AND CAST(km AS DOUBLE) <= 10 THEN '(5,10]' " +
    "WHEN CAST(km AS DOUBLE) > 10 AND CAST(km AS DOUBLE) <= 35 THEN '(10,35]' " +
    "ELSE 'out of range' END"

  /** Several trips per bucket, and a 0 km trip below the first one. */
  private val manyTrips = trips ++ Seq(
    Trip(3, 1, Seq(9, 8, 7, 6, 5), 1),  // 4 km
    Trip(4, 2, Seq(1, 2), 1),           // 1 km
    Trip(5, 2, Seq(0, 1, 2, 3, 4, 5, 6, 7, 8, 9), 1), // 9 km
    Trip(6, 0, Seq(4), 1))              // 0 km

  test("byDistance aggregation matches the DuckDB oracle") {
    val rnd = new scala.util.Random(7)
    val rows = for (i <- 0 until 60; algo <- Seq("A", "B")) yield Evaluator.EvalRow(
      i, algo, rnd.nextDouble(), rnd.nextDouble(), rnd.nextInt(1000), rnd.nextDouble() * 40, "InRegion")
    def mean(x: Double) = f"$x%.4f"
    val agg = Evaluator.byDistance(rows, bounds)
      .map(r => (r.algo, r.key, mean(r.sim1), mean(r.sim2), mean(r.micros), r.n.toString))
      .toDF("algo", "bucket", "sim1", "sim2", "micros", "n")
    val raw = rows.map(r => (r.algo, r.gtKm.toString, r.sim1.toString, r.sim2.toString, r.micros.toString))
      .toDF("algo", "km", "sim1", "sim2", "micros")
    def avg(c: String) = s"printf('%.4f', AVG(CAST($c AS DOUBLE))) AS $c"
    Oracle.assertEquivalent(agg,
      s"SELECT algo, $bucketSql AS bucket, ${avg("sim1")}, ${avg("sim2")}, ${avg("micros")}, " +
      "CAST(COUNT(*) AS VARCHAR) AS n FROM rows GROUP BY algo, bucket",
      "rows" -> raw)
  }

  test("byCategory covers every observed category") {
    val rows = Evaluator.evaluate(net, index, Seq(new Baselines.Fastest(net)), trips)
    assert(Evaluator.byCategory(rows).map(_.key).toSet === Set("InRegion", "InOutRegion", "OutRegion"))
  }

  test("distanceHistogram counts trips per bucket and matches the oracle") {
    val m = Evaluator.distanceHistogram(net, trips, bounds)
    assert(m === Map("(0,2]" -> 1L, "(2,5]" -> 1L, "(5,10]" -> 1L))
    val hist = Evaluator.distanceHistogram(net, manyTrips, bounds).toSeq
      .map { case (k, n) => (k, n.toString) }.toDF("bucket", "n")
    val km = manyTrips.map(t => net.pathLength(t.path.toVector).toString).toDF("km")
    Oracle.assertEquivalent(hist,
      s"SELECT $bucketSql AS bucket, CAST(COUNT(*) AS VARCHAR) AS n FROM trips GROUP BY bucket",
      "trips" -> km)
  }

  test("Table II shows out-of-range trips in their own bucket") {
    val (in, _) = Tables.tableII(net, trips, Seq(0, 2, 5, 10), "line")
    assert(in.map(_.bucket) === Seq("(0,2]", "(2,5]", "(5,10]"))
    val (hs, text) = Tables.tableII(net, trips, Seq(0, 2, 5), "line")
    assert(hs.map(h => h.bucket -> h.n) === Seq("(0,2]" -> 1L, "(2,5]" -> 1L, Evaluator.OutOfRange -> 1L))
    assert(math.abs(hs.map(_.pct).sum - 100.0) < 1e-9)
    assert(text.contains(Evaluator.OutOfRange))
  }

  test("latency is measured (non-negative micros)") {
    val rows = Evaluator.evaluate(net, index, Seq(new Baselines.Fastest(net)), trips)
    assert(rows.forall(_.micros >= 0))
  }

  test("evaluate rejects a router's invalid path, naming the router, trip and endpoints") {
    val hostile = new Router {
      val name = "Hostile"
      def route(driver: Int, s: Int, d: Int): Vector[Int] = Vector(s, d)
    }
    // trip 2 (4 → 5) is one edge, so Vector(s, d) is its valid path; trip 0 (0 → 3) is not
    val e = intercept[IllegalStateException](
      Evaluator.evaluate(net, index, Seq(hostile), trips.filter(_.id != 1)))
    Seq("Hostile", "trip 0", "from 0 to 3").foreach(w => assert(e.getMessage.contains(w), e.getMessage))
    assert(Evaluator.evaluate(net, index, Seq(hostile), trips.filter(_.id == 2)).map(_.sim1) === Seq(1.0))
  }

  test("evaluate names the lowest invalid trip when several are invalid") {
    // driver 1's trip fails late and driver 2's early; both join 0 and 3 with no road between
    val hostile = new Router {
      val name = "Hostile"
      def route(driver: Int, s: Int, d: Int): Vector[Int] = {
        if (driver == 1) Thread.sleep(50)
        if (driver == 0) Vector.range(s, d + 1) else Vector(s, d)
      }
    }
    val valid = (0 until 40).map(i => Trip(i, 0, Seq(i % 9, i % 9 + 1), 1))
    val bad = Seq(Trip(40, 1, Seq(0, 1, 2, 3), 1), Trip(41, 2, Seq(0, 1, 2, 3), 1))
    val e = intercept[IllegalStateException](Evaluator.evaluate(net, index, Seq(hostile), valid ++ bad ++ valid))
    assert(e.getMessage === "Hostile returned an invalid path for trip 40 from 0 to 3")
  }
}
