package repro.core

import repro.roadnet.{CostType, Preference, RoadNetwork}
import repro.util.CostHeap

import scala.collection.immutable.ArraySeq

/** The unified routing algorithm of Section VI, answering arbitrary (s, d)
  * requests on the region graph.
  *
  * Case 1 (both endpoints in regions): same region → most-traversed
  * inner-region path (fastest path if none); different regions → a region
  * path that prefers few region edges and geometric progress toward the
  * destination region (direct region edges always win), mapped back to the
  * road network by `mapRegionPath`: a stored fragment through s then d,
  * else Algorithm 2 under the preference its region edges vote for.
  *
  * Case 2 (an endpoint outside all regions): the first and last regions on
  * the fastest s → d path stand in for the missing endpoint regions; with
  * fewer than two distinct regions the fastest path is returned.
  */
final class L2RRouter(net: RoadNetwork, index: RegionGraphIndex) {

  private val FastestCode = Preference.code(Preference(CostType.TT, None))

  /** The per-hop constant of [[regionPath]]'s edge weights, in km. */
  private val HopPenaltyKm = 1.0

  private def fastest(s: Int, d: Int): Vector[Int] =
    net.dijkstra(s, d, CostType.TT).getOrElse(Vector(s, d))

  private def isRegion(r: Int): Boolean = r >= 0 && r < index.nRegions

  /** Region-graph path search: Dijkstra over region edges weighted by
    * centroid distance plus a per-hop constant, so direct edges always beat
    * multi-hop detours (triangle inequality) and fewer region edges are
    * preferred — the paper's routing intuition. None when `rs` or `rd` is no
    * region or `rd` is unreachable. The search runs over the index's CSR
    * adjacency on a [[CostHeap]], which pops equal costs in the order of the
    * library priority queue the search once used, so every region path
    * stays the same.
    */
  def regionPath(rs: Int, rd: Int): Option[Seq[Int]] = {
    if (!isRegion(rs) || !isRegion(rd)) return None
    val adj = index.adjacency
    val dist = Array.fill(index.nRegions)(Double.PositiveInfinity)
    val parent = new Array[Int](index.nRegions)
    val done = new Array[Boolean](index.nRegions)
    val heap = new CostHeap(index.nRegions)
    dist(rs) = 0.0
    heap.push(0.0, rs)
    while (heap.size > 0) {
      val c = heap.minCost; val r = heap.minVertex
      heap.pop()
      if (!done(r)) {
        done(r) = true
        if (r == rd) {
          var len = 1; var v = rd
          while (v != rs) { v = parent(v); len += 1 }
          val path = new Array[Int](len)
          v = rd
          for (i <- len - 1 to 0 by -1) { path(i) = v; v = parent(v) }
          return Some(ArraySeq.unsafeWrapArray(path))
        }
        var p = adj.off(r)
        while (p < adj.off(r + 1)) {
          val nb = adj.nbr(p)
          val nc = c + adj.dist(p) + HopPenaltyKm
          if (nc < dist(nb)) { dist(nb) = nc; parent(nb) = r; heap.push(nc, nb) }
          p += 1
        }
      }
    }
    None
  }

  /** The s … d slice of the most-traversed stored path, among the rows of
    * `ranges`, that passes s before d; on equal counts the first in range
    * order, as a stable sort by count picks it. Null when no path does.
    */
  private def storedSlice(ranges: Seq[Range], s: Int, d: Int): Vector[Int] = {
    var best = -1; var bestS = 0; var bestD = 0
    for (range <- ranges; p <- range if best < 0 || index.pathCount(p) > index.pathCount(best)) {
      val is = index.indexIn(p, s)
      if (is >= 0) {
        val id = index.indexIn(p, d)
        if (id > is) { best = p; bestS = is; bestD = id }
      }
    }
    if (best < 0) null
    else index.slice(best, bestS, bestD + 1)
  }

  /** Same-region routing: the most-traversed inner path of region `r`
    * containing s before d, else the fastest path.
    */
  def innerRoute(r: Int, s: Int, d: Int): Vector[Int] = {
    val p = if (isRegion(r)) storedSlice(Seq(index.innerPathsOf(r)), s, d) else null
    if (p != null) p else fastest(s, d)
  }

  /** Map a region path back to a road path (Section VI).
    *
    * A direct region edge routes s → d with that edge's learned or
    * transferred preference (Algorithm 2) — for a T-edge this
    * reconstructs the behaviour of the trajectories that connect the two
    * regions. A multi-edge region path represents one coherent journey,
    * so the preferences of its region edges *vote* (weighted by
    * trajectory support) and the winning preference routes s → d in one
    * go; anchoring on every intermediate region's entry vertex would
    * manufacture detours the trajectories never took. With no preference
    * available anywhere on the path, the fastest path `fp` is returned
    * (paper, Section VII-B: null-preference edges get fastest paths); so
    * is it when ⟨TT, none⟩ wins, as Algorithm 2 under that preference is
    * the same search. Case 2 passes the fastest path it has already
    * computed.
    */
  private def mapRegionPath(s: Int, d: Int, rp: Seq[Int], fp: => Vector[Int]): Vector[Int] = {
    val rows = (0 until rp.length - 1).map(i => index.edgeRow(rp(i), rp(i + 1)))
    // Case 1 of trajectory-based routing: if a stored trajectory fragment
    // along the region path already runs through s and then d, recommend
    // that sub-path directly (most-traversed first, then in region-path
    // order).
    val reuse = storedSlice(rows.map(index.edgePaths), s, d)
    if (reuse != null) return reuse

    // each code's vote: the trajectory support of its region edges, at least 1 each
    val weight = new Array[Int](Preference.all.length)
    var voted = false
    rows.foreach { e =>
      val code = index.edgePref(e)
      if (code >= 0) {
        weight(code) += math.max(1, index.edgePaths(e).map(index.pathCount(_)).sum)
        voted = true
      }
    }
    if (!voted) fp
    else {
      // the heaviest vote; on ties the lowest master id, then the lowest slave road type
      var best = 0
      for (c <- weight.indices if weight(c) > weight(best)) best = c
      if (best == FastestCode) fp
      else net.prefDijkstra(s, d, Preference.fromCode(best)).getOrElse(fp)
    }
  }

  /** Answer a routing request; always returns a valid path s → d. */
  def route(s: Int, d: Int): Vector[Int] = {
    if (s == d) return Vector(s)
    val rs = index.regionOf(s)
    val rd = index.regionOf(d)
    if (rs >= 0 && rd >= 0) {
      if (rs == rd) innerRoute(rs, s, d) // Case 1, same region: most-traversed inner path
      else // Case 1, different regions: route on the region graph
        regionPath(rs, rd).fold(fastest(s, d))(mapRegionPath(s, d, _, fastest(s, d)))
    } else {
      // Case 2 (Section VI): find candidate regions *visited by the
      // fastest path* from s to d; with fewer than two candidates the
      // fastest path is returned unchanged (paper, Fig. 8).
      val fp = fastest(s, d)
      val a = if (rs >= 0) rs else fp.iterator.map(index.regionOf).find(_ >= 0).getOrElse(-1)
      val b = if (rd >= 0) rd else fp.reverseIterator.map(index.regionOf).find(_ >= 0).getOrElse(-1)
      if (a == b) fp else regionPath(a, b).fold(fp)(mapRegionPath(s, d, _, fp))
    }
  }
}
