package repro.core

import org.apache.spark.sql.SparkSession
import repro.roadnet.{CostType, Preference, RoadNetwork}

/** Step 3 of Section V: materialise concrete road-network paths for every
  * B-edge by running the preference-aware Dijkstra (Algorithm 2) between
  * transfer-center pairs of the two regions, under the edge's transferred
  * preference. B-edges with a null preference get fastest paths (paper,
  * Section VII-B).
  *
  * Fan-out: one Dataset row per B-edge, routed on executors against the
  * broadcast network.
  */
object BEdgePaths {

  /** Work item, its preference in [[Preference]]'s flat form; a null
    * preference gets the fastest path.
    */
  final case class BEdgeTask(ri: Int, rj: Int, masterId: Int, slaveRt: Int,
                             srcTcs: Seq[Int], dstTcs: Seq[Int])

  final case class BEdgeResult(ri: Int, rj: Int, paths: Seq[Seq[Int]])

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

  /** Route one task (runs on executors). */
  def routeTask(net: RoadNetwork, t: BEdgeTask): BEdgeResult = {
    val pref = Preference.fromIds(t.masterId, t.slaveRt).getOrElse(Preference(CostType.TT, None))
    val paths = (for (s <- t.srcTcs; d <- t.dstTcs if s != d) yield (s, d))
      .flatMap { case (s, d) => net.prefDijkstra(s, d, pref) }
      .filter(_.length >= 2)
      .distinct
    BEdgeResult(t.ri, t.rj, paths.map(_.toSeq))
  }

  /** Materialise paths for all B-edges of the index, returning a new index
    * whose B-edges carry paths (count 0 ⇒ synthetic, not trajectory-backed)
    * and preferences.
    */
  def materialise(spark: SparkSession, net: RoadNetwork, index: RegionGraphIndex,
                  prefs: Map[(Int, Int), Option[Preference]],
                  tcsPerSide: Int = 2): RegionGraphIndex = {
    import spark.implicits._
    val bEdges = index.edges.values.filterNot(_.isT).toSeq
    val tasks = bEdges.map { e =>
      val a = index.regions(e.ri); val b = index.regions(e.rj)
      val (masterId, slaveRt) = Preference.toIds(prefs.getOrElse(e.key, None))
      BEdgeTask(e.ri, e.rj, masterId, slaveRt,
        pickTcs(net, a, b, tcsPerSide), pickTcs(net, b, a, tcsPerSide))
    }
    val bc = spark.sparkContext.broadcast(net)
    val results = spark.createDataset(tasks)
      .repartition(math.max(1, math.min(tasks.size, spark.sparkContext.defaultParallelism * 2)))
      .map(t => routeTask(bc.value, t))
      .collect()
      .map(r => (if (r.ri < r.rj) (r.ri, r.rj) else (r.rj, r.ri)) -> r.paths).toMap

    val newEdges = index.edges.map {
      case (k, e) if !e.isT =>
        val paths = results.getOrElse(k, Nil).map(p => PathRec(p, 0))
        k -> e.copy(paths = paths, pref = prefs.getOrElse(k, None))
      case (k, e) =>
        k -> e.copy(pref = prefs.getOrElse(k, e.pref))
    }
    new RegionGraphIndex(index.regions, index.vertexRegion, newEdges, index.innerPaths)
  }
}
