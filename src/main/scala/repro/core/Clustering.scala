package repro.core

import scala.collection.mutable

/** The paper's Algorithm 1: bottom-up agglomerative clustering of the
  * trajectory graph driven by modularity gain, constrained by road type
  * (Table I). Parameter-free by design.
  *
  * ΔQ(v_i, v_j) = s_ij/S − S_i·S_j/S² for adjacent vertices, else 0;
  * vertices merge only on positive gain and consistent road types. The
  * highest-popularity vertex always starts the next merge iteration. The
  * kernel is inherently sequential (a global priority queue over the
  * evolving graph) but runs on the *aggregated* trajectory graph, a few
  * thousand popular edges ([[TrajectoryGraph.clusterInput]]).
  */
object Clustering {

  /** An undirected trajectory-graph edge (u < v) with popularity and road type. */
  final case class ClusterEdge(u: Int, v: Int, pop: Double, rt: Int)

  /** A finished cluster: the region's member vertex ids. */
  final case class Region(id: Int, members: Set[Int])

  /** A merged-edge annotation in the evolving graph: summed popularity and
    * the road type of the most popular underlying edge (the paper leaves
    * parallel-edge road types unspecified; majority-by-popularity is the
    * natural choice).
    */
  private final case class EInfo(var s: Double, var rt: Int, var rtS: Double)

  private final class Node(
      val members: List[Int],
      val pop: Double,
      /** -1 ⇒ simple vertex; otherwise the aggregate's road type v.RT */
      val rt: Int,
      val adj: mutable.Map[Int, EInfo])

  /** Cluster the trajectory graph given by `edges`; every endpoint appears
    * in exactly one returned region.
    */
  def cluster(edges: Seq[ClusterEdge]): Seq[Region] = {
    if (edges.isEmpty) return Nil
    val S = edges.map(_.pop).sum

    // --- initial simple-vertex graph
    val adjOf = mutable.Map.empty[Int, mutable.Map[Int, EInfo]]
    edges.foreach { e =>
      adjOf.getOrElseUpdate(e.u, mutable.Map.empty).put(e.v, EInfo(e.pop, e.rt, e.pop))
      adjOf.getOrElseUpdate(e.v, mutable.Map.empty).put(e.u, EInfo(e.pop, e.rt, e.pop))
    }
    val nodes = mutable.Map.empty[Int, Node]
    adjOf.foreach { case (v, a) => nodes.put(v, new Node(List(v), a.values.map(_.s).sum, -1, a)) }

    var nextId = nodes.keys.max + 1
    val pq = mutable.PriorityQueue.empty[(Double, Int)](Ordering.by(_._1))
    nodes.foreach { case (id, nd) => pq.enqueue((nd.pop, id)) }

    /** Table I merge qualification for (v_k, v_j) over edge info `ei`. */
    def checkQ(k: Node, j: Node, ei: EInfo): Boolean = {
      if (modularityGain(ei.s, k.pop, j.pop, S) <= 0) false
      else (k.rt, j.rt) match {
        case (-1, -1)   => true            // simple + simple: ΔQ only
        case (-1, jrt)  => jrt == ei.rt    // v_j aggregate: v_j.RT = w_RT
        case (krt, -1)  => krt == ei.rt    // v_k aggregate: v_k.RT = w_RT
        case (krt, jrt) => krt == jrt      // both aggregate: equal RT
      }
    }

    val regions = mutable.ArrayBuffer.empty[Region]
    var nextRegion = 0
    def finalize0(id: Int, nd: Node): Unit = {
      regions += Region(nextRegion, nd.members.toSet); nextRegion += 1
      nodes.remove(id); ()
    }

    while (pq.nonEmpty) {
      val (pop, k) = pq.dequeue()
      nodes.get(k) match {
        case Some(nk) if nk.pop == pop => // live entry
          if (nk.adj.isEmpty) finalize0(k, nk)
          else {
            // VB: adjacent vertices passing qualification
            val vb = nk.adj.iterator.filter { case (j, ei) => checkQ(nk, nodes(j), ei) }.map(_._1).toVector
            // SelectM: aggregates take all of VB; simple vertices take the
            // largest same-edge-road-type subset (ties → smallest rt)
            val vbSel: Vector[Int] =
              if (nk.rt != -1 || vb.isEmpty) vb
              else {
                val grouped = vb.groupBy(j => nk.adj(j).rt)
                grouped.toSeq.sortBy { case (rt, vs) => (-vs.size, rt) }.head._2
              }
            val selSet = vbSel.toSet
            // cut edges to VA \ VB'
            nk.adj.keys.toVector.foreach { j =>
              if (!selSet.contains(j)) {
                nk.adj.remove(j)
                nodes(j).adj.remove(k)
              }
            }
            if (vbSel.isEmpty) {
              // isolated after cutting: it becomes a region
              finalize0(k, nk)
            } else {
              // merge v_k with VB' into a fresh aggregate vertex
              val mergedIds = selSet + k
              val parts = mergedIds.toVector.map(nodes)
              val newRt =
                if (nk.rt != -1) nk.rt
                else nk.adj(vbSel.head).rt // SelectM guarantees a common edge rt
              val newAdj = mutable.Map.empty[Int, EInfo]
              parts.foreach { p =>
                p.adj.foreach { case (nb, ei) =>
                  if (!mergedIds.contains(nb)) {
                    newAdj.get(nb) match {
                      case Some(acc) =>
                        acc.s += ei.s
                        if (ei.rtS > acc.rtS || (ei.rtS == acc.rtS && ei.rt < acc.rt)) { acc.rt = ei.rt; acc.rtS = ei.rtS }
                      case None => newAdj.put(nb, EInfo(ei.s, ei.rt, ei.rtS))
                    }
                  }
                }
              }
              val newNode = new Node(parts.flatMap(_.members).toList, parts.map(_.pop).sum, newRt, newAdj)
              val id = nextId; nextId += 1
              mergedIds.foreach(nodes.remove)
              // rewire neighbours to the new aggregate
              newAdj.foreach { case (nb, ei) =>
                val na = nodes(nb).adj
                mergedIds.foreach(na.remove)
                na.put(id, EInfo(ei.s, ei.rt, ei.rtS))
              }
              nodes.put(id, newNode)
              pq.enqueue((newNode.pop, id))
            }
          }
        case _ => () // stale queue entry
      }
    }
    regions.toSeq
  }

  /** Modularity gain ΔQ of merging two adjacent clusters (the merge test of `cluster`). */
  def modularityGain(sij: Double, si: Double, sj: Double, s: Double): Double =
    sij / s - si * sj / (s * s)
}
