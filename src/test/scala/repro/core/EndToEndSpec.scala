package repro.core

import repro.SparkJobs.jobsOf
import repro.{Fixtures, SparkSpec}
import repro.TestNets.refRegionPath
import repro.eval.{Evaluator, Scenario, Tables}
import repro.roadnet.{CostType, Preference}

import scala.collection.mutable
import scala.util.Random

/** Full-pipeline smoke + quality tests on a small but complete scenario. */
class EndToEndSpec extends SparkSpec {

  private lazy val sc: Scenario = Fixtures.tiny

  test("regionPath breaks equal-cost ties as the library-queue search does") {
    // four one-vertex regions on a unit square, joined in a ring: 0 → 3 costs
    // the same via 1 and via 2, so the neighbour order decides
    val net = repro.TestNets.custom(Seq((0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (1.0, 1.0)),
      Seq((0, 1, 1.0, 6), (0, 2, 1.0, 6), (1, 3, 1.0, 6), (2, 3, 1.0, 6)))
    val regions = (0 until 4).map(i => Clustering.Region(i, Set(i)))
    val infos = regions.map(r => RegionGraph.regionInfo(net, r, Array(r.id), 2))
    val keys = Seq((0, 1), (0, 2), (1, 3), (2, 3))
    val found = for (order <- Seq(keys, keys.reverse)) yield {
      val index = new RegionGraphIndex(infos, order.map { case (a, b) => RegionEdgeData(a, b, isT = false, Nil, None) }, Nil)
      val router = new L2RRouter(net, index)
      for (a <- 0 until 4; b <- 0 until 4) assert(router.regionPath(a, b) === refRegionPath(index, a, b), s"$order: $a to $b")
      router.regionPath(0, 3)
    }
    assert(found.distinct.size === 2, "the edge order must decide the tie")
  }

  /** The router before the index moved to arrays, over the map views;
    * `branches` counts the Section VI branches it took.
    */
  private final class RefRouter(net: repro.roadnet.RoadNetwork, index: RegionGraphIndex) {
    val branches = mutable.Map.empty[String, Int].withDefaultValue(0)
    private val fastestPref = Preference(CostType.TT, None)
    private def fastest(s: Int, d: Int) = net.dijkstra(s, d, CostType.TT).getOrElse(Vector(s, d))
    private def edgeBetween(a: Int, b: Int) = index.edges.get(if (a < b) (a, b) else (b, a))

    private def innerRoute(r: Int, s: Int, d: Int): Vector[Int] = {
      val cands = index.pathRecs(index.innerPathsOf(r)).flatMap { pr =>
        val is = pr.verts.indexOf(s); val id = pr.verts.indexOf(d)
        if (is >= 0 && id > is) Some((pr.count, pr.verts.slice(is, id + 1).toVector)) else None
      }
      branches(if (cands.nonEmpty) "inner" else "inner fastest") += 1
      if (cands.nonEmpty) cands.maxBy(_._1)._2 else fastest(s, d)
    }

    private def mapRegionPath(s: Int, d: Int, rp: Seq[Int], fp: => Vector[Int]): Vector[Int] = {
      val reuse = rp.sliding(2).toSeq.flatMap { case Seq(a, b) => edgeBetween(a, b).toSeq.flatMap(_.paths) }
        .sortBy(-_.count).iterator.flatMap { pr =>
          val is = pr.verts.indexOf(s); val id = pr.verts.indexOf(d)
          if (is >= 0 && id > is) Some(pr.verts.slice(is, id + 1).toVector) else None
        }.nextOption()
      reuse.foreach { p => branches("reuse") += 1; return p }
      val votes = rp.sliding(2).toSeq.flatMap { case Seq(a, b) =>
        edgeBetween(a, b).flatMap(e => e.pref.map(_ -> math.max(1, e.paths.map(_.count).sum)))
      }
      if (votes.isEmpty) { branches("no vote") += 1; fp }
      else {
        val pref = votes.groupMapReduce(_._1)(_._2)(_ + _).maxBy { case (p, w) => (w, -p.masterId, -p.slaveRt) }._1
        branches(if (pref == fastestPref) "fastest vote" else if (rp.length == 2) "direct vote" else "multi-edge vote") += 1
        if (pref == fastestPref) fp else net.prefDijkstra(s, d, pref).getOrElse(fp)
      }
    }

    def route(s: Int, d: Int): Vector[Int] = {
      if (s == d) return Vector(s)
      val rsOpt = index.vertexRegion.get(s); val rdOpt = index.vertexRegion.get(d)
      (rsOpt, rdOpt) match {
        case (Some(rs), Some(rd)) if rs == rd => innerRoute(rs, s, d)
        case (Some(rs), Some(rd)) =>
          refRegionPath(index, rs, rd).map(mapRegionPath(s, d, _, fastest(s, d))).getOrElse(fastest(s, d))
        case _ =>
          branches("case 2") += 1
          val fp = fastest(s, d)
          val rs = rsOpt.orElse(fp.iterator.flatMap(index.vertexRegion.get).nextOption())
          val rd = rdOpt.orElse(fp.reverseIterator.flatMap(index.vertexRegion.get).nextOption())
          (rs, rd) match {
            case (Some(a), Some(b)) if a != b => refRegionPath(index, a, b).map(mapRegionPath(s, d, _, fp)).getOrElse(fp)
            case _ => fp
          }
      }
    }
  }

  test("route equals the map-based router on every test trip and 2,000 seeded pairs") {
    val ref = new RefRouter(sc.net, sc.model.index)
    val router = sc.model.router(sc.net)
    val rnd = new Random(29)
    val pairs = sc.test.map(t => (t.path.head, t.path.last)) ++
      Seq.fill(2000)((rnd.nextInt(sc.net.n), rnd.nextInt(sc.net.n)))
    pairs.foreach { case (s, d) => assert(router.route(s, d) === ref.route(s, d), s"$s to $d") }
    val taken = ref.branches
    assert(Seq("inner", "inner fastest", "reuse", "direct vote", "multi-edge vote", "fastest vote", "case 2")
      .forall(taken(_) > 0), taken)
  }

  test("regionPath equals the library-queue search over the map views for every region pair") {
    val index = sc.model.index
    val router = sc.model.router(sc.net)
    val ids = index.regions.indices
    for (a <- ids; b <- ids) assert(router.regionPath(a, b) === refRegionPath(index, a, b), s"region $a to $b")
  }

  test("pipeline produces regions, T-edges and B-edges") {
    assert(sc.model.regions.nonEmpty)
    assert(sc.model.nTEdges > 0, "training trips must induce T-edges")
    assert(sc.model.index.edges.nonEmpty)
  }

  test("the region graph is connected") {
    assert(sc.model.index.isConnected)
  }

  test("every T-edge received a learned preference") {
    val learned = PreferenceLearning.byKey(sc.model.learned).keySet
    val tKeys = sc.model.index.edges.values.filter(_.isT).map(_.key).toSet
    assert(learned === tKeys)
  }

  test("learned preferences have high self-similarity (paths explain themselves)") {
    val sims = sc.model.learned.map(_.avgSim)
    assert(sims.nonEmpty)
    assert(sims.sum / sims.size > 0.6, s"mean self-similarity ${sims.sum / sims.size}")
  }

  test("every non-null B-edge carries materialised paths") {
    sc.model.index.edges.values.filterNot(_.isT).foreach { e =>
      if (e.pref.isDefined) assert(e.paths.nonEmpty, s"B-edge ${e.key} with preference has no paths")
    }
  }

  test("stage timings are recorded") {
    val (a, b, c, d) = sc.model.stageMillis
    assert(a >= 0 && b >= 0 && c >= 0 && d >= 0)
  }

  test("L2R routes every test trip endpoint pair") {
    val router = sc.model.router(sc.net)
    sc.test.take(50).foreach { t =>
      val p = router.route(t.path.head, t.path.last)
      assert(p.head === t.path.head && p.last === t.path.last)
      assert(sc.net.isValidPath(p), s"invalid path for ${t.path.head}→${t.path.last}")
      assert(p.distinct.length === p.length, s"path for ${t.path.head}→${t.path.last} revisits a vertex")
    }
  }

  test("L2R beats Fastest and Shortest on overall accuracy (the paper's headline)") {
    val (byDist, _, _) = Tables.accuracyTables(sc, Seq("L2R", "Shortest", "Fastest"))
    val overall = Tables.overall(byDist, _.sim1)
    assert(overall("L2R") > overall("Fastest"),
      s"L2R=${overall("L2R")} vs Fastest=${overall("Fastest")}")
    assert(overall("L2R") > overall("Shortest"),
      s"L2R=${overall("L2R")} vs Shortest=${overall("Shortest")}")
  }

  test("InRegion accuracy exceeds OutRegion accuracy for L2R") {
    val rows = Evaluator.evaluate(sc.net, sc.model.index,
      sc.routers.filter(_.name == "L2R"), sc.test)
    val byCat = Evaluator.byCategory(rows).map(r => r.key -> r.sim1).toMap
    for (in <- byCat.get("InRegion"); out <- byCat.get("OutRegion"))
      assert(in >= out - 0.05, s"InRegion=$in should not trail OutRegion=$out")
  }

  test("the evaluation tables start no Spark job") {
    val small = sc.copy(test = sc.test.take(40))
    val jobs = jobsOf(spark.sparkContext) {
      Tables.accuracyTables(small, Seq("L2R", "Fastest"))
      Tables.tableII(small.net, small.test, small.bounds, small.name)
    }
    assert(jobs === 0)
  }

  test("building a scenario starts no Spark job") {
    // generation, the fit and the baselines all run on the driver
    assert(jobsOf(spark.sparkContext)(Scenario.tiny()) === 0)
  }

  test("transfer produced preferences for most B-edges (low null rate)") {
    assert(sc.model.transfer.nullRate < 0.9,
      s"null rate ${sc.model.transfer.nullRate} suspiciously high")
  }
}
