package repro.jobs

import repro.core.{PreferenceLearning, PreferenceTransfer}
import repro.eval.{Scenario, Tables}

import scala.annotation.tailrec
import scala.collection.immutable.ListMap

/** Regenerates the paper's evaluation artefacts on D1-lite and D2-lite,
  * each printed by the [[Tables]] function its bench suite asserts on. No
  * stage is distributed work, so no SparkSession starts.
  *
  * {{{
  * Reproduce [table2] [table4] [fig9] [routing] [google] [--scale x]
  * }}}
  *
  * Names the artefacts to print (all of them when none is named), in the
  * order given; `--scale x` (x > 0, default 1) scales the trip counts.
  */
object Reproduce {

  /** Each artefact's name and its printout for one scenario. */
  private val Artefacts: ListMap[String, Scenario => String] = ListMap(
    // Table II: trajectory distance distributions
    "table2" -> (s => Tables.tableII(s.net, s.train ++ s.test, s.bounds, s.name)._2),
    // Table IV: region size distributions
    "table4" -> { s =>
      val areaBounds = if (s.name == "D1-lite") Seq(0.0, 2, 10, 100) else Seq(0.0, 2, 5, 10)
      Tables.tableIV(s.net, s.model.regions, areaBounds, s.name)._2
    },
    // Fig 9 / Table III: the preference-transfer parameter study
    "fig9" -> { s =>
      val tFeats = PreferenceTransfer.features(s.model.index, PreferenceLearning.byKey(s.model.learned)).filter(_.isT)
      s"=== ${s.name} ===\n" + Tables.fig9(tFeats, 0.7, Seq(0.5, 0.6, 0.7, 0.8, 0.9))._3
    },
    // Figs 10–12: accuracy and latency of L2R against the baselines
    "routing" -> { s =>
      val (g, l, t, a) = s.model.stageMillis
      s"=== ${s.name} ===\n" + Tables.accuracyTables(s, Seq("L2R", "Shortest", "Fastest", "Dom", "TRIP"))._3 +
        s"Offline millis (${s.name}): regionGraph=$g learn=$l transfer=$t apply=$a\n"
    },
    // Fig 13: L2R against the simulated commercial routing service
    "google" -> (s => s"=== ${s.name} ===\n" + Tables.accuracyTables(s, Seq("L2R", "Google"))._3))

  /** The artefact names and the scale that `args` give. Throws an
    * [[IllegalArgumentException]] on an unknown argument, and on a
    * `--scale` without a value or with one that is not a finite number
    * above 0.
    */
  def parse(args: Seq[String]): (Seq[String], Double) = {
    @tailrec def go(rest: List[String], names: Vector[String], scale: Double): (Seq[String], Double) = rest match {
      case Nil => (if (names.isEmpty) Artefacts.keys.toSeq else names.distinct, scale)
      case "--scale" :: v :: more =>
        val x = v.toDoubleOption.filter(d => d > 0 && !d.isInfinite)
          .getOrElse(throw new IllegalArgumentException(s"--scale needs a number above 0, not '$v'"))
        go(more, names, x)
      case "--scale" :: Nil => throw new IllegalArgumentException("--scale needs a value")
      case a :: more if Artefacts.contains(a) => go(more, names :+ a, scale)
      case a :: _ => throw new IllegalArgumentException(s"unknown argument '$a'")
    }
    go(args.toList, Vector.empty, 1.0)
  }

  def main(args: Array[String]): Unit = {
    val (names, scale) =
      try parse(args.toSeq)
      catch { case e: IllegalArgumentException =>
        System.err.println(s"Reproduce: ${e.getMessage}\nusage: Reproduce [${Artefacts.keys.mkString("] [")}] [--scale x]")
        sys.exit(2)
      }
    val scenarios = Seq(Scenario.d1(scale), Scenario.d2(scale))
    for (n <- names; s <- scenarios) println(Artefacts(n)(s))
  }
}
