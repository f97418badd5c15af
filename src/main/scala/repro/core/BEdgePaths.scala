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
  def pickTcs(net: RoadNetwork, r: RegionInfo, other: RegionInfo, k: Int): Seq[Int] = {
    def d(v: Int) = {
      val vv = net.vertices(v)
      math.hypot(vv.x - other.cx, vv.y - other.cy)
    }
    val cands = if (r.transferCenters.nonEmpty) r.transferCenters.toSeq else r.members.toSeq
    cands.sortBy(v => (d(v), v)).take(k)
  }

  /** [[materialise]]; kept for l2rbench until the benchmark PR; `spark` is unused. */
  def materialise(spark: SparkSession, net: RoadNetwork, index: RegionGraphIndex,
                  prefs: Map[(Int, Int), Option[Preference]], tcsPerSide: Int): RegionGraphIndex =
    materialise(net, index, prefs, tcsPerSide)

  /** Materialise paths for all B-edges of the index, returning a new index
    * whose B-edges carry paths (count 0 ⇒ synthetic, not trajectory-backed)
    * and preferences, with the edge rows in the same order. A B-edge's paths
    * are those between its transfer-center pairs (s, d), s ≠ d, source-major,
    * without repeats, with `tcsPerSide` centers picked on each side. The
    * searches run on the [[DriverPool]].
    */
  def materialise(net: RoadNetwork, index: RegionGraphIndex,
                  prefs: Map[(Int, Int), Option[Preference]],
                  tcsPerSide: Int): RegionGraphIndex = {
    val rows = index.edgeRows
    val plans = rows.filterNot(_.isT).map { e =>
      val a = index.regions(e.ri); val b = index.regions(e.rj)
      val pref = prefs.getOrElse(e.key, None).getOrElse(Preference(CostType.TT, None))
      val pairs = for (s <- pickTcs(net, a, b, tcsPerSide); d <- pickTcs(net, b, a, tcsPerSide) if s != d) yield (s, d)
      (e.key, pref, pairs)
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

    val results = plans.map { case (key, pref, pairs) =>
      key -> pairs.flatMap { case (s, d) => found((s, pref, d)) }
        .filter(_.length >= 2).distinct.map(PathRec(_, 0))
    }.toMap

    val newRows = rows.map { e =>
      if (e.isT) e.copy(pref = prefs.getOrElse(e.key, e.pref))
      else e.copy(paths = results(e.key), pref = prefs.getOrElse(e.key, None))
    }
    new RegionGraphIndex(index.regions, newRows, index.innerPaths)
  }
}
