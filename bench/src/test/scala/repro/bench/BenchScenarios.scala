package repro.bench

import repro.eval.Scenario

/** Shared, lazily-built bench scenarios (one per data set). Building a
  * scenario runs the full offline pipeline at bench scale, so the result is
  * cached across bench suites within the JVM.
  */
object BenchScenarios {
  /** 0 < scale ≤ 1 shrinks trip counts for smoke runs. */
  val scale: Double = sys.env.get("BENCH_SCALE").map(_.toDouble).getOrElse(1.0)

  lazy val d1: Scenario = Scenario.d1(scale)
  lazy val d2: Scenario = Scenario.d2(scale)
  def all: Seq[Scenario] = Seq(d1, d2)
}
