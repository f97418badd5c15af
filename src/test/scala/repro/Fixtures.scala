package repro

import repro.eval.Scenario

/** Scenarios that several suites read, built once per test run. */
object Fixtures {
  lazy val tiny: Scenario = Scenario.tiny(SparkSpec.shared)
}
