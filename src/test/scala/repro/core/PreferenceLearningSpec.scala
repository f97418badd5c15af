package repro.core

import repro.eval.PathSim
import repro.roadnet.{CostType, Preference, RoadNetwork}
import repro.{SparkSpec, TestNets}

class PreferenceLearningSpec extends SparkSpec {

  private val grid = TestNets.smallGrid(16, 12)

  /** [[PreferenceLearning.learn]] of one weighted path set: its preference
    * and average similarity.
    */
  private def learnOne(net: RoadNetwork, paths: Seq[(Seq[Int], Int)]): (Preference, Double) = {
    val lp = PreferenceLearning.learn(spark, net, Seq(PreferenceLearning.TEdgePaths(0, 0, paths.map(_._1), paths.map(_._2)))).head
    (lp.pref, lp.avgSim)
  }

  /** Plant a preference, route trips with it, and check recovery. */
  private def plantAndLearn(pref: Preference, pairs: Seq[(Int, Int)]): (Preference, Double) = {
    val paths = pairs.flatMap { case (s, d) => grid.prefDijkstra(s, d, pref) }
      .filter(_.length >= 2).map(p => (p: Seq[Int], 1))
    learnOne(grid, paths)
  }

  private val rnd = new scala.util.Random(19)
  private val pairs = Seq.fill(6)((rnd.nextInt(grid.n), rnd.nextInt(grid.n))).filter(p => p._1 != p._2)

  for (master <- CostType.all) {
    test(s"recovers planted master preference ${master.name}") {
      val (learned, sim) = plantAndLearn(Preference(master, None), pairs)
      assert(learned.master === master)
      assert(sim > 0.95, s"self-consistency similarity should be ~1, got $sim")
    }
  }

  test("recovers a planted slave preference (TT + motorway)") {
    val planted = Preference(CostType.TT, Some(1))
    val longPairs = Seq((0, grid.n - 1), (15, grid.n - 3), (2, grid.n - 20))
    val (learned, sim) = plantAndLearn(planted, longPairs)
    assert(learned.master === CostType.TT)
    assert(sim > 0.95)
    // slave is only kept when it strictly improves similarity; if the
    // TT-optimal path already uses motorways the slave may be dropped —
    // both are faithful explanations of the paths.
    if (learned.slave.isDefined) assert(learned.slave === Some(1))
  }

  test("slave feature is learned when it is the only explanation") {
    // plant DI + prefer-residential on pairs where plain-DI differs
    val planted = Preference(CostType.DI, Some(6))
    val cands = Seq.fill(30)((rnd.nextInt(grid.n), rnd.nextInt(grid.n)))
      .filter { case (s, d) => s != d }
      .filter { case (s, d) =>
        grid.prefDijkstra(s, d, planted).get != grid.dijkstra(s, d, _.dist).get
      }.take(5)
    assume(cands.nonEmpty, "need at least one pair where the slave matters")
    val (learned, _) = plantAndLearn(planted, cands)
    assert(learned.slave === Some(6))
  }

  test("empty path set yields the default preference") {
    val (p, sim) = learnOne(grid, Nil)
    assert(p === Preference(CostType.TT, None))
    assert(sim === 0.0)
  }

  test("path weights (trajectory counts) matter") {
    // one DI-consistent path with weight 10 vs one TT-consistent with weight 1
    val s = 0; val d = grid.n - 1
    val di = grid.dijkstra(s, d, _.dist).get
    val tt = grid.dijkstra(s, d, _.tt).get
    assume(di != tt)
    val (p, _) = learnOne(grid, Seq((di: Seq[Int]) -> 10, (tt: Seq[Int]) -> 1))
    assert(p.master === CostType.DI)
  }

  test("distributed learn matches local learnOne") {
    val tedges = pairs.take(3).zipWithIndex.map { case ((s, d), i) =>
      val p = grid.dijkstra(s, d, _.dist).get
      PreferenceLearning.TEdgePaths(i, i + 100, Seq(p), Seq(1))
    }
    val learned = PreferenceLearning.learn(spark, grid, tedges).sortBy(_.ri)
    learned.zip(tedges).foreach { case (lp, te) =>
      val (expect, sim) = learnOne(grid, te.paths.zip(te.counts))
      assert(lp.pref === expect)
      assert(lp.avgSim === sim)
    }
  }

  test("avgSim is in [0,1]") {
    val ps = pairs.take(4).map { case (s, d) => (grid.dijkstra(s, d, _.fc).get: Seq[Int]) -> 2 }
    val (_, sim) = learnOne(grid, ps)
    assert(sim >= 0.0 && sim <= 1.0 + 1e-9)
  }

  /** Per-path scoring as the paper states it: one `prefDijkstra` per
    * (path, preference), the two best masters' slaves, the same tie-breaks.
    */
  private def perPathLearn(net: RoadNetwork, paths: Seq[(Seq[Int], Int)]): (Preference, Double) = {
    val trips = paths.filter(_._1.length >= 2)
    if (trips.isEmpty) return (Preference(CostType.TT, None), 0.0)
    val totalW = trips.map(_._2).sum.toDouble
    def score(pref: Preference): Double = trips.map { case (p, w) =>
      net.prefDijkstra(p.head, p.last, pref).map(cp => w * PathSim.sim1(net, p, cp)).getOrElse(0.0)
    }.sum
    val ranked = CostType.all.map(c => c -> score(Preference(c, None))).sortBy { case (c, s) => (-s, c.id) }
    val (master, masterScore) = ranked.head
    val slaveCands = for (m <- ranked.take(2).map(_._1); rt <- 1 to 6)
      yield (Preference(m, Some(rt)), score(Preference(m, Some(rt))))
    val (bestSlavePref, bestSlaveScore) = slaveCands.maxBy { case (p, s) => (s, -p.masterId, -p.slaveRt) }
    if (bestSlaveScore > masterScore + 1e-12) (bestSlavePref, bestSlaveScore / totalW)
    else (Preference(master, None), masterScore / totalW)
  }

  test("learn equals per-path prefDijkstra scoring when T-edges share heads") {
    val r = new scala.util.Random(41)
    val heads = Seq(0, 37, 100, grid.n - 1)
    val prefs = Preference.all
    val tedges = (0 until 12).map { i =>
      val ps = Seq.fill(1 + r.nextInt(4)) {
        val s = heads(r.nextInt(heads.size)); val d = r.nextInt(grid.n)
        grid.prefDijkstra(s, d, prefs(r.nextInt(prefs.size))).get
      }
      PreferenceLearning.TEdgePaths(i, 50 + i, ps :+ Seq(heads(i % heads.size)), ps.map(_ => 1 + r.nextInt(4)) :+ 2)
    }
    val stored = tedges.flatMap(_.paths).filter(_.length >= 2)
    assert(stored.map(_.head).distinct.size < stored.size, "no two paths share a head")
    assert(stored.exists(p => prefs.exists(TestNets.needsFallback(grid, p.head, p.last, _))), "no search needs the fallback")
    val learned = PreferenceLearning.learn(spark, grid, tedges)
    assert(learned.map(lp => (lp.ri, lp.rj)) === tedges.map(te => (te.ri, te.rj)))
    learned.zip(tedges).foreach { case (lp, te) =>
      val (expect, sim) = perPathLearn(grid, te.paths.zip(te.counts))
      assert(lp.pref === expect, s"T-edge ${te.ri}")
      assert(lp.avgSim === sim, s"T-edge ${te.ri}")
    }
  }
}
