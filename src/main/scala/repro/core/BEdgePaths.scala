package repro.core

import org.apache.spark.sql.SparkSession
import repro.roadnet.{CostType, Preference, RoadNetwork}
import repro.util.DriverPool

import scala.collection.mutable

/** Step 3 of Section V: materialise concrete road-network paths for every
  * B-edge by running the preference-aware Dijkstra (Algorithm 2) between
  * transfer-center pairs of the two regions, under the edge's transferred
  * preference. B-edges with a null preference get fastest paths (paper,
  * Section VII-B).
  *
  * Transfer centers serve several B-edges, so the searches are grouped by
  * (source transfer center, preference): one many-target search
  * ([[RoadNetwork.prefDijkstraMany]]) per group, run on a pool of driver
  * threads ([[DriverPool]]). The driver then assembles each B-edge's paths
  * in its own pair order.
  */
object BEdgePaths {

  /** Pick up to `k` transfer centers of region `r`, nearest to the other
    * region's centroid; fall back to the member vertex nearest that
    * centroid when the region has no recorded transfer centers.
    */
  def pickTcs(net: RoadNetwork, r: RegionInfo, other: RegionInfo, k: Int): Seq[Int] =
    nearest(net, r.transferCenters, r.members, other.cx, other.cy, k)

  /** [[pickTcs]] of a region with transfer centers `tcs` and members
    * `members`, towards the point (`x`, `y`).
    */
  private def nearest(net: RoadNetwork, tcs: Array[Int], members: Array[Int], x: Double, y: Double, k: Int): Seq[Int] = {
    def d(v: Int) = math.hypot(net.vertices(v).x - x, net.vertices(v).y - y)
    (if (tcs.nonEmpty) tcs else members).toSeq.sortBy(v => (d(v), v)).take(k)
  }

  /** [[materialise]]; kept for l2rbench until the benchmark PR; `spark` is unused. */
  def materialise(spark: SparkSession, net: RoadNetwork, index: RegionGraphIndex,
                  prefs: Map[(Int, Int), Option[Preference]], tcsPerSide: Int): RegionGraphIndex =
    materialise(net, index, prefs, tcsPerSide)

  /** Materialise paths for all B-edges of the index, returning a new index
    * whose B-edges carry paths (count 0 ⇒ synthetic, not trajectory-backed)
    * and whose edges carry `prefs` (a T-edge missing from `prefs` keeps its
    * preference, a B-edge gets none), with the edge rows in the same order.
    * A B-edge's paths are those between its transfer-center pairs (s, d),
    * s ≠ d, source-major, without repeats, with `tcsPerSide` centers picked
    * on each side. The searches run on the [[DriverPool]]; the regions, the
    * rows and the T-edge and inner paths are taken over from `index` as
    * they are ([[RegionGraphIndex.withBEdgePaths]]).
    */
  def materialise(net: RoadNetwork, index: RegionGraphIndex,
                  prefs: Map[(Int, Int), Option[Preference]],
                  tcsPerSide: Int): RegionGraphIndex = {
    def side(a: Int, b: Int) =
      nearest(net, index.transferCenters(a), index.members(a), index.cx(b), index.cy(b), tcsPerSide)
    val plans = (0 until index.nEdges).filterNot(index.edgeIsT(_)).map { e =>
      val (a, b) = (index.edgeRi(e), index.edgeRj(e))
      val pref = prefs.getOrElse(index.edgeKey(e), None).getOrElse(Preference(CostType.TT, None))
      val pairs = for (s <- side(a, b); d <- side(b, a) if s != d) yield (s, d)
      (e, pref, pairs)
    }
    // one search per (source, preference), to every target some B-edge pairs with it
    val targets = mutable.LinkedHashMap.empty[(Int, Preference), mutable.LinkedHashSet[Int]]
    for ((_, pref, pairs) <- plans; (s, d) <- pairs)
      targets.getOrElseUpdate((s, pref), mutable.LinkedHashSet.empty) += d
    val searches = targets.toIndexedSeq.map { case (sp, ds) => sp -> ds.toIndexedSeq }
    val paths = DriverPool.map(searches, DriverPool.Threads) { case ((s, pref), ds) =>
      net.prefDijkstraMany(s, ds, Seq(pref)).head
    }
    val found = searches.zip(paths).flatMap { case (((s, pref), ds), ps) =>
      ds.zip(ps).map { case (d, p) => (s, pref, d) -> p }
    }.toMap

    val bPaths = plans.map { case (e, pref, pairs) =>
      e -> pairs.flatMap { case (s, d) => found((s, pref, d)) }.filter(_.length >= 2).distinct
    }.toMap
    val pref = Array.tabulate(index.nEdges) { e =>
      prefs.getOrElse(index.edgeKey(e), if (index.edgeIsT(e)) index.pref(e) else None).fold(-1)(Preference.code).toByte
    }
    index.withBEdgePaths(pref, bPaths)
  }
}
