package repro.core

import repro.SparkJobs.jobsOf
import repro.SparkSpec
import repro.eval.{Evaluator, Scenario, Tables}

/** Full-pipeline smoke + quality tests on a small but complete scenario. */
class EndToEndSpec extends SparkSpec {

  private lazy val sc: Scenario = Scenario.tiny(spark)

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
    val (byDist, _, _) = Tables.accuracyTables(spark, sc, Seq("L2R", "Shortest", "Fastest"))
    val overall = Tables.overall(byDist)
    assert(overall("L2R") > overall("Fastest"),
      s"L2R=${overall("L2R")} vs Fastest=${overall("Fastest")}")
    assert(overall("L2R") > overall("Shortest"),
      s"L2R=${overall("L2R")} vs Shortest=${overall("Shortest")}")
  }

  test("InRegion accuracy exceeds OutRegion accuracy for L2R") {
    val rows = Evaluator.evaluate(spark, sc.net, sc.model.index,
      sc.routers.filter(_.name == "L2R"), sc.test)
    val byCat = Evaluator.byCategory(rows).map(r => r.key -> r.sim1).toMap
    for (in <- byCat.get("InRegion"); out <- byCat.get("OutRegion"))
      assert(in >= out - 0.05, s"InRegion=$in should not trail OutRegion=$out")
  }

  test("the evaluation tables start no Spark job") {
    val small = sc.copy(test = sc.test.take(40))
    val jobs = jobsOf(spark.sparkContext) {
      Tables.accuracyTables(spark, small, Seq("L2R", "Fastest"))
      Tables.tableII(small.net, small.test, small.bounds, small.name)
    }
    assert(jobs === 0)
  }

  test("transfer produced preferences for most B-edges (low null rate)") {
    assert(sc.model.transfer.nullRate < 0.9,
      s"null rate ${sc.model.transfer.nullRate} suspiciously high")
  }
}
