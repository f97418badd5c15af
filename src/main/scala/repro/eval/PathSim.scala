package repro.eval

import repro.roadnet.RoadNetwork

/** The paper's two path-similarity functions.
  *
  * Eq. 1: pSim(P, P') = Σ_{e ∈ P ∩ P'} len(e) / Σ_{e ∈ P} len(e)
  * Eq. 4: pSim(P, P') = Σ_{e ∈ P ∩ P'} len(e) / Σ_{e ∈ P ∪ P'} len(e)
  *
  * Edges are treated as undirected (the networks here are bidirectional
  * with symmetric weights), matching the "shared road segments" intuition.
  */
object PathSim {

  /** The undirected edge set of a vertex path, as canonical (min,max) pairs. */
  def edgeSet(path: Seq[Int]): Set[(Int, Int)] =
    path.iterator.sliding(2).withPartial(false).map { s =>
      val a = s.head; val b = s(1)
      if (a < b) (a, b) else (b, a)
    }.toSet

  private def totalLen(net: RoadNetwork, es: Set[(Int, Int)]): Double =
    es.iterator.map { case (a, b) => net.lenBetween(a, b) }.sum

  /** Eq. 1 — shared length over ground-truth length. gt must have ≥ 1 edge. */
  def sim1(net: RoadNetwork, gt: Seq[Int], p: Seq[Int]): Double = new Sim1(net, gt)(p)

  /** Eq. 1 against one ground-truth path, whose edge set and length are
    * computed once for scoring many candidate paths.
    */
  final class Sim1(net: RoadNetwork, gt: Seq[Int]) {
    private val gtE = edgeSet(gt)
    private val denom = if (gtE.isEmpty) 0.0 else totalLen(net, gtE)

    def apply(p: Seq[Int]): Double =
      if (denom <= 0) 0.0 else totalLen(net, gtE intersect edgeSet(p)) / denom
  }

  /** Eq. 4 — shared length over union length. */
  def sim2(net: RoadNetwork, gt: Seq[Int], p: Seq[Int]): Double = {
    val gtE = edgeSet(gt); val pE = edgeSet(p)
    val denom = totalLen(net, gtE union pE)
    if (denom <= 0) 0.0 else totalLen(net, gtE intersect pE) / denom
  }
}
