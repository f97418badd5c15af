package repro.core

import org.apache.spark.sql.SparkSession
import repro.eval.PathSim
import repro.roadnet._

/** Step 1 of Section V: learn one representative routing preference vector
  * V* per T-edge from its path set ℙ_ij, by coordinate descent over the
  * master (cost) dimension then the slave (road-condition) dimension —
  * exactly the paper's "efficient learning algorithm".
  *
  * The per-T-edge work (many bounded Dijkstra runs) fans out as a Dataset
  * map over executors holding the broadcast road network.
  */
object PreferenceLearning {

  /** A T-edge's path set, encoder-friendly: `paths(k)` used by `counts(k)`
    * trajectories.
    */
  final case class TEdgePaths(ri: Int, rj: Int, paths: Seq[Seq[Int]], counts: Seq[Int])

  /** A learned preference in [[Preference]]'s flat form. */
  final case class LearnedPref(ri: Int, rj: Int, masterId: Int, slaveRt: Int, avgSim: Double) {
    def pref: Preference = Preference.fromIds(masterId, slaveRt).get
    def key: (Int, Int) = if (ri < rj) (ri, rj) else (rj, ri)
  }

  /** Learned preferences keyed by their region edge's (min, max) key. */
  def byKey(learned: Seq[LearnedPref]): Map[(Int, Int), LearnedPref] =
    learned.map(lp => lp.key -> lp).toMap

  /** Road types usable as slave features (the 6 OSM classes). */
  val slaveRts: Seq[Int] = 1 to 6

  /** Learn the preference explaining one weighted path set.
    *
    * Coordinate descent as in the paper, but widened to the two best
    * master features: the slave dimension is searched under each, and the
    * globally best ⟨master, slave⟩ wins (a greedy master pick can lock in
    * the wrong cost feature when two masters explain the paths almost
    * equally well without a road-condition feature). A slave is kept only
    * when it strictly improves the summed similarity.
    */
  def learnOne(net: RoadNetwork, paths: Seq[(Seq[Int], Int)]): (Preference, Double) = {
    val trips = paths.filter(_._1.length >= 2)
    if (trips.isEmpty) return (Preference(CostType.TT, None), 0.0)
    val totalW = trips.map(_._2).sum.toDouble

    def score(pref: Preference): Double = trips.map { case (p, w) =>
      net.prefDijkstra(p.head, p.last, pref)
        .map(cp => w * PathSim.sim1(net, p, cp)).getOrElse(0.0)
    }.sum

    // master dimension
    val masterScores = CostType.all.map(c => c -> score(Preference(c, None)))
    val ranked = masterScores.sortBy { case (c, s) => (-s, c.id) }
    val (master, masterScore) = ranked.head

    // slave dimension, searched under the two best masters
    val slaveCands = for (m <- ranked.take(2).map(_._1); rt <- slaveRts)
      yield (Preference(m, Some(rt)), score(Preference(m, Some(rt))))
    val (bestSlavePref, bestSlaveScore) =
      slaveCands.maxBy { case (p, s) => (s, -p.masterId, -p.slaveRt) }
    if (bestSlaveScore > masterScore + 1e-12)
      (bestSlavePref, bestSlaveScore / totalW)
    else
      (Preference(master, None), masterScore / totalW)
  }

  /** Distributed learning over all T-edges. */
  def learn(spark: SparkSession, net: RoadNetwork, tedges: Seq[TEdgePaths]): Seq[LearnedPref] = {
    import spark.implicits._
    val bc = spark.sparkContext.broadcast(net)
    spark.createDataset(tedges)
      .repartition(math.max(1, math.min(tedges.size, spark.sparkContext.defaultParallelism * 2)))
      .map { te =>
        val (pref, sim) = learnOne(bc.value, te.paths.zip(te.counts))
        LearnedPref(te.ri, te.rj, pref.masterId, pref.slaveRt, sim)
      }
      .collect().toSeq
  }
}
