package repro.bench

import repro.eval.Tables
import org.scalatest.funsuite.AnyFunSuite

/** Figures 10–12 + the offline-time paragraph of Section VII-C:
  * accuracy (both similarity functions, by distance and by category) and
  * online latency of L2R vs Shortest / Fastest / Dom / TRIP.
  *
  * Paper shapes to reproduce:
  *  - L2R has the highest accuracy everywhere;
  *  - Shortest degrades with distance; Fastest ≈ Shortest for short trips,
  *    clearly better for long trips;
  *  - Dom is the best non-L2R method but is much slower (skyline search);
  *  - TRIP is slightly better than Fastest at Fastest-like runtime;
  *  - L2R's InRegion accuracy beats OutRegion (where it degenerates to
  *    the fastest path).
  */
class RoutingAccuracyBench extends AnyFunSuite {

  private val algos = Seq("L2R", "Shortest", "Fastest", "Dom", "TRIP")

  /** Prints and checks the tables of `s`; returns its rows by distance. */
  private def run(s: repro.eval.Scenario): Seq[Tables.AccRow] = {
    val (byDist, byCat, txt) = Tables.accuracyTables(s, algos)
    println(s"=== ${s.name}: ${s.test.size} test queries ===\n" + txt)
    val overall = Tables.overall(byDist, _.sim1)
    val latency = Tables.overall(byDist, _.micros)
    println(f"Overall Eq.1 accuracy: ${overall.toSeq.sortBy(-_._2).map { case (a, v) => f"$a=$v%.3f" }.mkString("  ")}")
    println(f"Overall latency µs:    ${latency.toSeq.sortBy(_._2).map { case (a, v) => f"$a=$v%.0f" }.mkString("  ")}")
    val (g, l, t, a) = s.model.stageMillis
    println(s"Offline stage millis: regionGraph=$g prefLearn=$l transfer=$t applyPaths=$a\n")

    // Fig 10/11 headline: L2R wins overall
    assert(overall("L2R") > overall("Fastest"), s"$overall")
    assert(overall("L2R") > overall("Shortest"), s"$overall")
    assert(overall("L2R") > overall("TRIP"), s"$overall")
    // Dom is the strongest baseline: beats Shortest
    assert(overall("Dom") > overall("Shortest"), s"$overall")
    // Fig 12: Dom is the slowest by a clear margin
    assert(latency("Dom") > 2.0 * latency("Fastest"), s"$latency")
    // TRIP runs in Fastest-like time (same asymptotics)
    assert(latency("TRIP") < latency("Dom"), s"$latency")
    byDist
  }

  test("Figs 10–12: D2-lite comparison") { run(BenchScenarios.d2) }

  test("Figs 10–12: D1-lite comparison") {
    val s = BenchScenarios.d1
    val byDist = run(s)
    // D1-specific shape: for long trips Fastest clearly beats Shortest
    val longBuckets = Tables.buckets(s.bounds).drop(1) // ≥ 10 km
    val long = Tables.overall(byDist.filter(r => longBuckets.contains(r.key)), _.sim1)
    val (fAvg, sAvg) = (long("Fastest"), long("Shortest"))
    assert(fAvg > sAvg, f"long-distance: Fastest=$fAvg%.3f must beat Shortest=$sAvg%.3f")
  }
}
