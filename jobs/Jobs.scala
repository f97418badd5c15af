package repro.jobs

import org.apache.spark.sql.SparkSession
import repro.core.{PreferenceLearning, PreferenceTransfer}
import repro.eval.{Scenario, Tables}

/** Shared session/scenario plumbing for the spark-submit entrypoints.
  * Each job regenerates one evaluation artefact; `--scale x` shrinks the
  * trip count for smoke runs.
  */
object Jobs {
  def session(name: String): SparkSession =
    SparkSession.builder()
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName(name)
      .getOrCreate()

  def scale(args: Array[String]): Double =
    args.sliding(2).collectFirst { case Array("--scale", v) => v.toDouble }.getOrElse(1.0)

  def scenarios(spark: SparkSession, sc: Double): Seq[Scenario] =
    Seq(Scenario.d1(spark, sc), Scenario.d2(spark, sc))
}

/** Table II — trajectory distance distributions of both data sets. */
object TableII {
  def main(args: Array[String]): Unit = {
    val spark = Jobs.session("table2")
    Jobs.scenarios(spark, Jobs.scale(args)).foreach { s =>
      val (_, txt) = Tables.tableII(s.net, s.train ++ s.test, s.bounds, s.name)
      println(txt)
    }
    spark.stop()
  }
}

/** Table IV — region size distributions. */
object TableIV {
  def main(args: Array[String]): Unit = {
    val spark = Jobs.session("table4")
    Jobs.scenarios(spark, Jobs.scale(args)).foreach { s =>
      val areaBounds = if (s.name == "D1-lite") Seq(0.0, 2, 10, 100) else Seq(0.0, 2, 5, 10)
      val (_, txt) = Tables.tableIV(s.net, s.model.regions, areaBounds, s.name)
      println(txt)
    }
    spark.stop()
  }
}

/** Fig 9 / Table III — preference-transfer parameter study. */
object Fig9Transfer {
  def main(args: Array[String]): Unit = {
    val spark = Jobs.session("fig9")
    Jobs.scenarios(spark, Jobs.scale(args)).foreach { s =>
      val learned = PreferenceLearning.byKey(s.model.learned)
      val tFeats = PreferenceTransfer.features(s.model.index, learned).filter(_.isT)
      val (_, _, txt) = Tables.fig9(spark, tFeats, 0.7, Seq(0.5, 0.6, 0.7, 0.8, 0.9))
      println(s"=== ${s.name} ===\n" + txt)
    }
    spark.stop()
  }
}

/** Figs 10–12 — accuracy and latency of L2R vs Shortest/Fastest/Dom/TRIP. */
object RoutingComparison {
  def main(args: Array[String]): Unit = {
    val spark = Jobs.session("routing")
    Jobs.scenarios(spark, Jobs.scale(args)).foreach { s =>
      val (_, _, txt) = Tables.accuracyTables(spark, s, Seq("L2R", "Shortest", "Fastest", "Dom", "TRIP"))
      println(s"=== ${s.name} ===\n" + txt)
      val (g, l, t, a) = s.model.stageMillis
      println(s"Offline millis (${s.name}): regionGraph=$g learn=$l transfer=$t apply=$a\n")
    }
    spark.stop()
  }
}

/** Fig 13 — L2R vs the simulated commercial routing service. */
object GoogleComparison {
  def main(args: Array[String]): Unit = {
    val spark = Jobs.session("google")
    Jobs.scenarios(spark, Jobs.scale(args)).foreach { s =>
      val (_, _, txt) = Tables.accuracyTables(spark, s, Seq("L2R", "Google"))
      println(s"=== ${s.name} ===\n" + txt)
    }
    spark.stop()
  }
}
