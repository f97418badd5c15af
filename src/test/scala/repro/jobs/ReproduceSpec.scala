package repro.jobs

import org.scalatest.funsuite.AnyFunSuite

/** The command line of [[Reproduce]]. */
class ReproduceSpec extends AnyFunSuite {

  test("Reproduce takes artefact names and --scale, and rejects anything else") {
    val all = Seq("table2", "table4", "fig9", "routing", "google")
    assert(Reproduce.parse(Nil) === ((all, 1.0)))
    assert(Reproduce.parse(Seq("--scale", "0.1")) === ((all, 0.1)))
    assert(Reproduce.parse(Seq("fig9", "--scale", "0.25", "table2", "fig9")) === ((Seq("fig9", "table2"), 0.25)))
    for (bad <- Seq(Seq("table3"), Seq("--scale"), Seq("table2", "--scale"), Seq("--scale", "x"),
                    Seq("--scale", "0"), Seq("--scale", "-1"), Seq("--scale", "NaN"), Seq("--scale", "Infinity"),
                    Seq("--scale=0.1")))
      intercept[IllegalArgumentException](Reproduce.parse(bad))
  }
}
