package repro.eval

import repro.baselines.Router
import repro.core.RegionGraphIndex
import repro.eval.Tables.AccRow
import repro.roadnet.RoadNetwork
import repro.traj.Trip
import repro.util.DriverPool

/** Query-time evaluation harness (Section VII): routes every held-out trip
  * with every algorithm, scores both path-similarity functions against the
  * ground-truth path, measures per-query latency, and aggregates by
  * distance bucket and by region-membership category.
  *
  * Routing runs one trip per work item on a pool of driver threads sharing
  * the network, index and routers ([[DriverPool]]); the aggregations are
  * driver-side group-bys (oracle-checked in tests).
  */
object Evaluator {

  /** One (trip, algorithm) measurement. */
  final case class EvalRow(tripId: Long, algo: String, sim1: Double, sim2: Double,
                           micros: Long, gtKm: Double, category: String)

  /** InRegion / InOutRegion / OutRegion classification of a query. */
  def categorize(index: RegionGraphIndex, s: Int, d: Int): String = {
    val a = index.regionOf(s) >= 0
    val b = index.regionOf(d) >= 0
    if (a && b) "InRegion" else if (a || b) "InOutRegion" else "OutRegion"
  }

  /** Route all test trips with all routers: one row per (trip, router), in
    * trip order, on the [[DriverPool]]. Trips of fewer than two vertices
    * are skipped. Throws [[IllegalStateException]] when a router returns
    * anything but a road path from the trip's first vertex to its last.
    */
  def evaluate(net: RoadNetwork, index: RegionGraphIndex,
               routers: Seq[Router], test: Seq[Trip]): Seq[EvalRow] =
    DriverPool.map(test.toIndexedSeq, DriverPool.Threads) { t =>
      val gt = t.path.toVector
      if (gt.length < 2) Nil
      else {
        val (s, d) = (gt.head, gt.last)
        val cat = categorize(index, s, d)
        val km = net.pathLength(gt)
        routers.map { r =>
          val t0 = System.nanoTime()
          val p = r.route(t.driver, s, d)
          val micros = (System.nanoTime() - t0) / 1000
          if (p.isEmpty || p.head != s || p.last != d || !net.isValidPath(p))
            throw new IllegalStateException(s"${r.name} returned an invalid path for trip ${t.id} from $s to $d")
          EvalRow(t.id, r.name, PathSim.sim1(net, gt, p), PathSim.sim2(net, gt, p), micros, km, cat)
        }
      }
    }.flatten

  /** Bucket label of a length outside (first bound, last bound]. */
  val OutOfRange = "out of range"

  /** Bucket label for a ground-truth length given ascending boundaries,
    * e.g. boundaries (0,2,5,10,35) → "(0,2]", "(2,5]", …, else [[OutOfRange]].
    */
  def bucket(km: Double, bounds: Seq[Double]): String =
    bounds.sliding(2).zip(Tables.buckets(bounds))
      .collectFirst { case (p, label) if km > p.head && km <= p(1) => label }
      .getOrElse(OutOfRange)

  /** Mean accuracy and latency per (algorithm, key), sorted by both. */
  private def aggregate(rows: Seq[EvalRow])(key: EvalRow => String): Seq[AccRow] =
    rows.groupBy(r => (r.algo, key(r))).toSeq.map { case ((algo, k), rs) =>
      def mean(f: EvalRow => Double) = rs.map(f).sum / rs.size
      AccRow(algo, k, mean(_.sim1), mean(_.sim2), mean(_.micros.toDouble), rs.size)
    }.sortBy(r => (r.algo, r.key))

  /** Accuracy + latency per (algorithm, distance bucket). */
  def byDistance(rows: Seq[EvalRow], bounds: Seq[Double]): Seq[AccRow] =
    aggregate(rows)(r => bucket(r.gtKm, bounds))

  /** Accuracy + latency per (algorithm, region category). */
  def byCategory(rows: Seq[EvalRow]): Seq[AccRow] = aggregate(rows)(_.category)

  /** Trips per distance bucket, for Table II. */
  def distanceHistogram(net: RoadNetwork, trips: Seq[Trip], bounds: Seq[Double]): Map[String, Long] =
    trips.groupMapReduce(t => bucket(net.pathLength(t.path.toVector), bounds))(_ => 1L)(_ + _)
}
