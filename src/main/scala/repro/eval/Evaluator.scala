package repro.eval

import org.apache.spark.sql.{DataFrame, Dataset, SparkSession}
import org.apache.spark.sql.functions._
import repro.baselines.Router
import repro.core.RegionGraphIndex
import repro.roadnet.RoadNetwork
import repro.traj.Trip

/** Query-time evaluation harness (Section VII): routes every held-out trip
  * with every algorithm, scores both path-similarity functions against the
  * ground-truth path, measures per-query latency, and aggregates by
  * distance bucket and by region-membership category.
  *
  * Routing fans out as a Dataset map with broadcast routers; aggregation is
  * Catalyst (and oracle-checked in tests).
  */
object Evaluator {

  /** One (trip, algorithm) measurement. */
  final case class EvalRow(tripId: Long, algo: String, sim1: Double, sim2: Double,
                           micros: Long, gtKm: Double, category: String)

  /** InRegion / InOutRegion / OutRegion classification of a query. */
  def categorize(index: RegionGraphIndex, s: Int, d: Int): String = {
    val a = index.vertexRegion.contains(s)
    val b = index.vertexRegion.contains(d)
    if (a && b) "InRegion" else if (a || b) "InOutRegion" else "OutRegion"
  }

  /** Route all test trips with all routers. */
  def evaluate(spark: SparkSession, net: RoadNetwork, index: RegionGraphIndex,
               routers: Seq[Router], test: Seq[Trip]): Dataset[EvalRow] = {
    import spark.implicits._
    val bcNet = spark.sparkContext.broadcast(net)
    val bcIdx = spark.sparkContext.broadcast(index)
    val bcRouters = spark.sparkContext.broadcast(routers)
    spark.createDataset(test)
      .repartition(math.max(1, math.min(test.size, spark.sparkContext.defaultParallelism * 3)))
      .flatMap { t =>
        val n = bcNet.value
        val gt = t.path.toVector
        if (gt.length < 2) Iterator.empty
        else {
          val cat = categorize(bcIdx.value, gt.head, gt.last)
          val km = n.pathLength(gt)
          bcRouters.value.iterator.map { r =>
            val t0 = System.nanoTime()
            val p = r.route(t.driver, gt.head, gt.last)
            val micros = (System.nanoTime() - t0) / 1000
            EvalRow(t.id, r.name, PathSim.sim1(n, gt, p), PathSim.sim2(n, gt, p), micros, km, cat)
          }
        }
      }
  }

  /** Bucket label of a length outside (first bound, last bound]. */
  val OutOfRange = "out of range"

  /** Bucket label for a ground-truth length given ascending boundaries,
    * e.g. boundaries (0,2,5,10,35) → "(0,2]", "(2,5]", …, else [[OutOfRange]].
    */
  def bucketExpr(col0: org.apache.spark.sql.Column, bounds: Seq[Double]): org.apache.spark.sql.Column =
    bounds.sliding(2).toSeq.zip(Tables.buckets(bounds)).foldRight(lit(OutOfRange)) { case ((p, label), acc) =>
      when(col0 > p.head && col0 <= p(1), lit(label)).otherwise(acc)
    }

  /** Accuracy + latency per (algorithm, distance bucket). */
  def byDistance(rows: Dataset[EvalRow], bounds: Seq[Double]): DataFrame =
    rows.toDF()
      .withColumn("bucket", bucketExpr(col("gtKm"), bounds))
      .groupBy("algo", "bucket")
      .agg(avg("sim1").as("sim1"), avg("sim2").as("sim2"),
           avg("micros").as("micros"), count(lit(1)).as("n"))

  /** Accuracy + latency per (algorithm, region category). */
  def byCategory(rows: Dataset[EvalRow]): DataFrame =
    rows.toDF()
      .groupBy("algo", "category")
      .agg(avg("sim1").as("sim1"), avg("sim2").as("sim2"),
           avg("micros").as("micros"), count(lit(1)).as("n"))

  /** Trip-length histogram for Table II. */
  def distanceHistogram(spark: SparkSession, net: RoadNetwork, trips: Seq[Trip],
                        bounds: Seq[Double]): DataFrame = {
    import spark.implicits._
    val bcNet = spark.sparkContext.broadcast(net)
    spark.createDataset(trips)
      .map(t => bcNet.value.pathLength(t.path.toVector))
      .toDF("km")
      .withColumn("bucket", bucketExpr(col("km"), bounds))
      .groupBy("bucket").agg(count(lit(1)).as("n"))
  }
}
