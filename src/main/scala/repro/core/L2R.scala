package repro.core

import repro.roadnet.{CostType, Preference, RoadNetwork}

import scala.collection.mutable

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
final class L2RRouter(net: RoadNetwork, index: RegionGraphIndex) extends Serializable {

  private val Fastest = Preference(CostType.TT, None)

  private def fastest(s: Int, d: Int): Vector[Int] =
    net.dijkstra(s, d, CostType.TT).getOrElse(Vector(s, d))

  /** Region-graph path search: Dijkstra over region edges weighted by
    * centroid distance plus a per-hop constant, so direct edges always beat
    * multi-hop detours (triangle inequality) and fewer region edges are
    * preferred — the paper's routing intuition.
    */
  def regionPath(rs: Int, rd: Int, hopPenaltyKm: Double = 1.0): Option[Seq[Int]] = {
    if (rs == rd) return Some(Seq(rs))
    val dist = mutable.HashMap(rs -> 0.0)
    val parent = mutable.HashMap.empty[Int, Int]
    val done = mutable.Set.empty[Int]
    val pq = mutable.PriorityQueue.empty[(Double, Int)](Ordering.by[(Double, Int), Double](_._1).reverse)
    pq.enqueue((0.0, rs))
    while (pq.nonEmpty) {
      val (c, r) = pq.dequeue()
      if (!done.contains(r)) {
        done += r
        if (r == rd) {
          val b = mutable.ArrayBuffer(rd)
          var cur = rd
          while (cur != rs) { cur = parent(cur); b += cur }
          return Some(b.reverse.toSeq)
        }
        index.neighbors.getOrElse(r, Nil).foreach { nb =>
          val nc = c + index.centroidDist(r, nb) + hopPenaltyKm
          if (nc < dist.getOrElse(nb, Double.PositiveInfinity)) {
            dist(nb) = nc; parent(nb) = r; pq.enqueue((nc, nb))
          }
        }
      }
    }
    None
  }

  /** Same-region routing: the most-traversed inner path containing s before
    * d, else the fastest path.
    */
  def innerRoute(r: Int, s: Int, d: Int): Vector[Int] = {
    val cands = index.innerPaths.getOrElse(r, Nil).flatMap { pr =>
      val is = pr.verts.indexOf(s)
      val id = pr.verts.indexOf(d)
      if (is >= 0 && id > is) Some((pr.count, pr.verts.slice(is, id + 1).toVector)) else None
    }
    if (cands.nonEmpty) cands.maxBy(_._1)._2 else fastest(s, d)
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
    // Case 1 of trajectory-based routing: if a stored trajectory fragment
    // along the region path already runs through s and then d, recommend
    // that sub-path directly (most-traversed first).
    val reuse = rp.sliding(2).toSeq.flatMap {
      case Seq(a, b) => index.edgeBetween(a, b).toSeq.flatMap(_.paths)
      case _         => Nil
    }.sortBy(-_.count).iterator.flatMap { pr =>
      val is = pr.verts.indexOf(s); val id = pr.verts.indexOf(d)
      if (is >= 0 && id > is) Some(pr.verts.slice(is, id + 1).toVector) else None
    }.nextOption()
    reuse.foreach(p => return p)

    val votes = rp.sliding(2).toSeq.flatMap {
      case Seq(a, b) =>
        index.edgeBetween(a, b).flatMap(e => e.pref.map(_ -> math.max(1, e.paths.map(_.count).sum)))
      case _ => None
    }
    if (votes.isEmpty) fp
    else {
      val pref = votes.groupMapReduce(_._1)(_._2)(_ + _)
        .maxBy { case (p, w) => (w, -p.masterId, -p.slaveRt) }._1
      if (pref == Fastest) fp else net.prefDijkstra(s, d, pref).getOrElse(fp)
    }
  }

  /** Answer a routing request; always returns a valid path s → d. */
  def route(s: Int, d: Int): Vector[Int] = {
    if (s == d) return Vector(s)
    val rsOpt = index.vertexRegion.get(s)
    val rdOpt = index.vertexRegion.get(d)
    (rsOpt, rdOpt) match {
      case (Some(rs), Some(rd)) if rs == rd =>
        // Case 1, same region: most-traversed inner path
        innerRoute(rs, s, d)
      case (Some(rs), Some(rd)) =>
        // Case 1, different regions: route on the region graph
        regionPath(rs, rd) match {
          case Some(rp) if rp.length >= 2 => mapRegionPath(s, d, rp, fastest(s, d))
          case _                          => fastest(s, d)
        }
      case _ =>
        // Case 2 (Section VI): find candidate regions *visited by the
        // fastest path* from s to d; with fewer than two candidates the
        // fastest path is returned unchanged (paper, Fig. 8).
        val fp = fastest(s, d)
        val rs = rsOpt.orElse(fp.iterator.flatMap(index.vertexRegion.get).nextOption())
        val rd = rdOpt.orElse(fp.reverseIterator.flatMap(index.vertexRegion.get).nextOption())
        (rs, rd) match {
          case (Some(a), Some(b)) if a != b =>
            regionPath(a, b) match {
              case Some(rp) if rp.length >= 2 => mapRegionPath(s, d, rp, fp)
              case _                          => fp
            }
          case _ => fp
        }
    }
  }
}
