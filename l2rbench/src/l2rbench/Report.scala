package l2rbench

import scala.collection.mutable

/** Everything one run prints: metrics with units, sample-count notes,
  * correctness checks, and operations attempted and failed. The last line
  * of the output is the JSON result.
  */
final class Report {
  private val metrics = mutable.LinkedHashMap.empty[String, (Double, String)]
  private val notes = mutable.ArrayBuffer.empty[String]
  private val checks = mutable.ArrayBuffer.empty[(String, Boolean, String)]
  var attempted = 0L
  var failed = 0L

  def metric(name: String, value: Double, unit: String): Unit = {
    require(!metrics.contains(name), s"metric $name reported twice")
    metrics(name) = (value, unit)
  }

  def note(line: String): Unit = notes += line

  def check(name: String, ok: Boolean, detail: => String = ""): Unit =
    checks += ((name, ok, if (ok) "" else detail))

  def operations(attempts: Long, failures: Long): Unit = { attempted += attempts; failed += failures }

  def correct: Boolean =
    checks.forall(_._2) && metrics.values.forall(v => !v._1.isNaN && !v._1.isInfinite)

  private def num(v: Double): String =
    if (v.isNaN || v.isInfinite) "null"
    else if (v == math.rint(v) && math.abs(v) < 1e15) v.toLong.toString
    else java.lang.Double.toString(v)

  private def quote(s: String): String = "\"" + s.replace("\\", "\\\\").replace("\"", "\\\"") + "\""

  def print(): Unit = {
    notes.foreach(println)
    metrics.foreach { case (k, (v, u)) => println(f"  $k%-40s ${num(v)}%18s $u") }
    checks.foreach { case (k, ok, d) => println(s"  check ${if (ok) "ok  " else "FAIL"} $k${if (ok) "" else ": " + d}") }
    println(s"  operations: $attempted attempted, $failed failed")
    val ms = metrics.map { case (k, (v, u)) => s"${quote(k)}: {\"value\": ${num(v)}, \"unit\": ${quote(u)}}" }
    println(s"""{"correct": $correct, "attempted": $attempted, "failed": $failed, "metrics": {${ms.mkString(", ")}}}""")
  }
}
