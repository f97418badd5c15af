package repro.eval

import org.apache.spark.sql.functions._
import repro.baselines.{Baselines, Router}
import repro.core.{Clustering, RegionGraphIndex}
import repro.traj.Trip
import repro.{Oracle, SparkSpec, TestNets}

class EvaluatorSpec extends SparkSpec {
  import spark.implicits._

  private val net = TestNets.line(10)
  private val index = {
    val regions = Seq(Clustering.Region(0, Set(0, 1, 2)), Clustering.Region(1, Set(7, 8, 9)))
    new RegionGraphIndex(
      regions.map(r => r.id -> repro.core.RegionGraph.regionInfo(net, r, Array.empty, 2)).toMap,
      Clustering.assignment(regions), Map.empty, Map.empty)
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
    val rows = Evaluator.evaluate(spark, net, index, routers, trips).collect()
    assert(rows.length === trips.size * routers.size)
    assert(rows.map(_.algo).toSet === Set("Shortest", "Fastest"))
  }

  test("on a line all routers find the ground truth exactly") {
    val rows = Evaluator.evaluate(spark, net, index, Seq(new Baselines.Fastest(net)), trips).collect()
    rows.foreach { r => assert(r.sim1 === 1.0); assert(r.sim2 === 1.0) }
  }

  test("gtKm and category are recorded") {
    val rows = Evaluator.evaluate(spark, net, index, Seq(new Baselines.Fastest(net)), trips)
      .collect().sortBy(_.tripId)
    assert(math.abs(rows(0).gtKm - 3.0) < 1e-9)
    assert(rows(0).category === "InOutRegion")
    assert(rows(1).category === "InRegion")
    assert(rows(2).category === "OutRegion")
  }

  test("bucketExpr assigns half-open (lo,hi] buckets") {
    val df = Seq(0.0, 0.5, 2.0, 2.1, 5.0, 34.9, 40.0).toDF("km")
      .withColumn("b", Evaluator.bucketExpr(col("km"), Seq(0, 2, 5, 10, 35)))
    val got = df.collect().map(_.getAs[String]("b")).toSeq
    assert(got === Seq(Evaluator.OutOfRange, "(0,2]", "(0,2]", "(2,5]", "(2,5]", "(10,35]", Evaluator.OutOfRange))
  }

  test("byDistance aggregation matches the DuckDB oracle") {
    val routers: Seq[Router] = Seq(new Baselines.Shortest(net), new Baselines.Fastest(net))
    val rows = Evaluator.evaluate(spark, net, index, routers, trips)
    val agg = Evaluator.byDistance(rows, Seq(0, 2, 5, 10, 35))
      .select(col("algo"), col("bucket"),
        format_number(col("sim1"), 4).as("sim1"), col("n").cast("string").as("n"))
    val raw = rows.toDF().withColumn("bucket", Evaluator.bucketExpr(col("gtKm"), Seq(0, 2, 5, 10, 35)))
      .select("algo", "bucket", "sim1")
    Oracle.assertEquivalent(agg,
      "SELECT algo, bucket, printf('%.4f', AVG(CAST(sim1 AS DOUBLE))) AS sim1, " +
      "CAST(COUNT(*) AS VARCHAR) AS n FROM rows GROUP BY algo, bucket",
      "rows" -> raw)
  }

  test("byCategory covers every observed category") {
    val rows = Evaluator.evaluate(spark, net, index, Seq(new Baselines.Fastest(net)), trips)
    val cats = Evaluator.byCategory(rows).collect().map(_.getAs[String]("category")).toSet
    assert(cats === Set("InRegion", "InOutRegion", "OutRegion"))
  }

  test("distanceHistogram counts trips per bucket and matches the oracle") {
    val df = Evaluator.distanceHistogram(spark, net, trips, Seq(0, 2, 5, 10, 35))
    val m = df.collect().map(r => r.getAs[String]("bucket") -> r.getAs[Long]("n")).toMap
    assert(m === Map("(0,2]" -> 1L, "(2,5]" -> 1L, "(5,10]" -> 1L))
  }

  test("Table II shows out-of-range trips in their own bucket") {
    val (in, _) = Tables.tableII(spark, net, trips, Seq(0, 2, 5, 10), "line")
    assert(in.map(_.bucket) === Seq("(0,2]", "(2,5]", "(5,10]"))
    val (hs, text) = Tables.tableII(spark, net, trips, Seq(0, 2, 5), "line")
    assert(hs.map(h => h.bucket -> h.n) === Seq("(0,2]" -> 1L, "(2,5]" -> 1L, Evaluator.OutOfRange -> 1L))
    assert(math.abs(hs.map(_.pct).sum - 100.0) < 1e-9)
    assert(text.contains(Evaluator.OutOfRange))
  }

  test("latency is measured (non-negative micros)") {
    val rows = Evaluator.evaluate(spark, net, index, Seq(new Baselines.Fastest(net)), trips).collect()
    assert(rows.forall(_.micros >= 0))
  }
}
