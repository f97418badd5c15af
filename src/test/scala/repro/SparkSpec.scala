package repro

import org.apache.spark.sql.SparkSession
import org.scalatest.funsuite.AnyFunSuite

/** Base for the suites that need a real SparkSession, one local-mode
  * session for the whole run. The library runs without one; a suite needs
  * it only to build a `Dataset` or `DataFrame`: the DuckDB oracle tests
  * (`Oracle.assertEquivalent` compares DataFrames), the tests of the
  * `Dataset` and `SparkSession` forms kept for l2rbench (the partition test
  * among them), distributed generation, and the guards that count Spark
  * jobs with [[SparkJobs.jobsOf]]. Every other suite extends `AnyFunSuite`.
  *
  * Driver heap is set via ``Test / javaOptions`` in build.sbt from
  * SPARK_DRIVER_MEM.
  */
trait SparkSpec extends AnyFunSuite {
  lazy val spark: SparkSession = SparkSpec.shared
}

object SparkSpec {
  lazy val shared: SparkSession = {
    val s = SparkSession.builder()
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName("repro")
      .getOrCreate()
    s.sparkContext.setLogLevel("WARN")
    // One line in test output that tells the driver whether the cgroup
    // derivation saw the real limit.
    Console.err.println(
      s"[SparkSpec] driverMem=${sys.env.getOrElse("SPARK_DRIVER_MEM", "(unset)")} " +
      s"master=${s.sparkContext.master} " +
      s"defaultParallelism=${s.sparkContext.defaultParallelism}"
    )
    s
  }
}
