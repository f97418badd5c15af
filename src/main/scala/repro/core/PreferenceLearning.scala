package repro.core

import org.apache.spark.sql.SparkSession
import repro.eval.PathSim
import repro.roadnet._
import repro.util.DriverPool

import scala.collection.mutable

/** Step 1 of Section V: learn one representative routing preference vector
  * V* per T-edge from its path set ℙ_ij, by coordinate descent over the
  * master (cost) dimension then the slave (road-condition) dimension —
  * exactly the paper's "efficient learning algorithm".
  *
  * The searches are the work. Stored paths of different T-edges often start
  * at the same vertex, so they are grouped by head: one work item per head
  * runs the many-target Algorithm 2 searches of all candidate preferences
  * in one call ([[RoadNetwork.prefDijkstraMany]]), whose master-only
  * searches also serve as the slave-rule fallbacks, and scores every path
  * that starts there. The 21 preferences hold each slave road type under
  * three masters, so that call first runs one reach pass per slave type:
  * a breadth-first pass under the slave rule, whose reach does not depend
  * on the master cost. The three restricted searches of the type then run
  * to the reached targets only, and not at all when none is reached; the
  * others take the master-only path, as the fallback gives them anyway.
  * Every path, and so every score, is the same as without the pass. The
  * work items run on a pool of driver threads
  * sharing the road network ([[DriverPool]]); the driver then sums each
  * T-edge's path scores and ranks its preferences.
  */
object PreferenceLearning {

  /** A T-edge's path set: `paths(k)` used by `counts(k)` trajectories. */
  final case class TEdgePaths(ri: Int, rj: Int, paths: Seq[Seq[Int]], counts: Seq[Int])

  /** The preference learned for T-edge (ri, rj), with its average Eq. 1
    * similarity over the edge's trajectories.
    */
  final case class LearnedPref(ri: Int, rj: Int, pref: Preference, avgSim: Double) {
    def key: (Int, Int) = if (ri < rj) (ri, rj) else (rj, ri)
    /** `pref.masterId`; kept for l2rbench until the benchmark PR moves it to the final API. */
    def masterId: Int = pref.masterId
    /** `pref.slaveRt`; kept for l2rbench until the benchmark PR moves it to the final API. */
    def slaveRt: Int = pref.slaveRt
  }

  /** The path sets of `index`'s T-edges, in edge-row order, each stored
    * path decoded once ([[RegionGraphIndex.verts]]).
    */
  def tEdgePaths(index: RegionGraphIndex): Seq[TEdgePaths] =
    (0 until index.nEdges).filter(index.edgeIsT(_)).map { e =>
      val ps = index.edgePaths(e)
      TEdgePaths(index.edgeRi(e), index.edgeRj(e), ps.map(index.verts), ps.map(index.pathCount(_)))
    }

  /** Learned preferences keyed by their region edge's (min, max) key. */
  def byKey(learned: Seq[LearnedPref]): Map[(Int, Int), LearnedPref] =
    learned.map(lp => lp.key -> lp).toMap

  /** The stored paths of `tedges` scored under every preference:
    * `scores(i)(k)(c)` is path k of T-edge i's count times its Eq. 1
    * similarity to the Algorithm 2 path between its endpoints under
    * `Preference.all(c)`, 0 when there is none; null for paths shorter than
    * two vertices. One work item per head vertex, on the [[DriverPool]],
    * runs the many-target searches of every preference.
    */
  private def pathScores(net: RoadNetwork, tedges: Seq[TEdgePaths]): Array[Array[IndexedSeq[Double]]] = {
    val paths = tedges.map(_.paths.toIndexedSeq).toIndexedSeq
    val counts = tedges.map(_.counts.toIndexedSeq).toIndexedSeq
    val byHead = mutable.LinkedHashMap.empty[Int, mutable.ArrayBuffer[(Int, Int)]]
    for (i <- paths.indices; k <- paths(i).indices if paths(i)(k).length >= 2)
      byHead.getOrElseUpdate(paths(i)(k).head, mutable.ArrayBuffer.empty) += ((i, k))
    val items = byHead.toIndexedSeq
    val scored = DriverPool.map(items, DriverPool.Threads) { case (head, ps) =>
      val found = net.prefDijkstraMany(head, ps.map { case (i, k) => paths(i)(k).last }.toIndexedSeq, Preference.all)
      ps.indices.map { j =>
        val (i, k) = ps(j)
        val sim1 = new PathSim.Sim1(net, paths(i)(k))
        found.map(_(j).map(cp => counts(i)(k) * sim1(cp)).getOrElse(0.0))
      }
    }
    val out = paths.map(ps => new Array[IndexedSeq[Double]](ps.size)).toArray
    for (((_, ps), ss) <- items.zip(scored); ((i, k), sc) <- ps.zip(ss)) out(i)(k) = sc
    out
  }

  /** Learn the preference explaining one weighted path set, given its
    * paths' candidate scores by path index.
    *
    * Coordinate descent as in the paper, but widened to the two best
    * master features: the slave dimension is searched under each, and the
    * globally best ⟨master, slave⟩ wins (a greedy master pick can lock in
    * the wrong cost feature when two masters explain the paths almost
    * equally well without a road-condition feature). A slave is kept only
    * when it strictly improves the summed similarity, summed over the
    * paths in their stored order.
    */
  private def choose(te: TEdgePaths, scores: Array[IndexedSeq[Double]]): (Preference, Double) = {
    val trips = te.paths.indices.filter(te.paths(_).length >= 2)
    if (trips.isEmpty) return (Preference(CostType.TT, None), 0.0)
    val totalW = trips.map(te.counts(_)).sum.toDouble

    def score(pref: Preference): Double = { val c = Preference.code(pref); trips.map(k => scores(k)(c)).sum }

    // master dimension
    val masterScores = CostType.all.map(c => c -> score(Preference(c, None)))
    val ranked = masterScores.sortBy { case (c, s) => (-s, c.id) }
    val (master, masterScore) = ranked.head

    // slave dimension, searched under the two best masters
    val masters = ranked.take(2).map(_._1)
    val slaveCands = Preference.all.filter(p => p.slave.isDefined && masters.contains(p.master)).map(p => (p, score(p)))
    val (bestSlavePref, bestSlaveScore) =
      slaveCands.maxBy { case (p, s) => (s, -Preference.code(p)) }
    if (bestSlaveScore > masterScore + 1e-12)
      (bestSlavePref, bestSlaveScore / totalW)
    else
      (Preference(master, None), masterScore / totalW)
  }

  /** [[learn]]; kept for l2rbench until the benchmark PR; `spark` is unused. */
  def learn(spark: SparkSession, net: RoadNetwork, tedges: Seq[TEdgePaths]): Seq[LearnedPref] = learn(net, tedges)

  /** Learning over all T-edges, in their order, on the [[DriverPool]]. */
  def learn(net: RoadNetwork, tedges: Seq[TEdgePaths]): Seq[LearnedPref] = {
    val scores = pathScores(net, tedges)
    tedges.zip(scores).map { case (te, sc) =>
      val (pref, sim) = choose(te, sc)
      LearnedPref(te.ri, te.rj, pref, sim)
    }
  }
}
