package l2rbench

import java.lang.management.ManagementFactory

import org.apache.spark.SparkContext
import org.apache.spark.scheduler.{SparkListener, SparkListenerJobEnd, SparkListenerJobStart, SparkListenerTaskEnd}

import scala.collection.mutable
import scala.jdk.CollectionConverters._

/** Order statistics of timing samples (nanoseconds). */
object Stats {

  /** Nearest-rank position (1-based) of the p-th percentile among n samples. */
  def rank(n: Int, p: Double): Int = math.ceil(p * n / 100.0 - 1e-9).toInt.max(1)

  /** Nearest-rank p-th percentile of ascending samples. */
  def percentile(sorted: Array[Long], p: Double): Long = {
    require(sorted.nonEmpty, "percentile of no samples")
    sorted(rank(sorted.length, p) - 1)
  }

  /** Samples that lie beyond the p-th percentile of n samples. */
  def beyond(n: Int, p: Double): Int = n - rank(n, p)

  val Ladder: Seq[Double] = Seq(99.99, 99.9, 99.0, 95.0, 90.0, 75.0, 50.0)

  /** The highest percentile of [[Ladder]] with at least `minBeyond` samples
    * beyond it: the tail a sample of n can report honestly.
    */
  def tailPercentile(n: Int, minBeyond: Int = 10): Option[Double] =
    Ladder.find(p => beyond(n, p) >= minBeyond)

  def sorted(xs: Iterable[Long]): Array[Long] = { val a = xs.toArray; java.util.Arrays.sort(a); a }

  def mean(xs: Iterable[Double]): Double = if (xs.isEmpty) 0.0 else xs.sum / xs.size

  def median(xs: Seq[Double]): Double = {
    val s = xs.sorted; val n = s.length
    if (n % 2 == 1) s(n / 2) else (s(n / 2 - 1) + s(n / 2)) / 2
  }
}

/** Spans recorded by the benchmark around its calls into the program: name,
  * start, end and the enclosing span. Spans of one request share the id of
  * its root span. Single-threaded; kept in memory and written out at the end.
  */
final class Tracer {
  private val nameIds = mutable.LinkedHashMap.empty[String, Int]
  private var nm = new Array[Int](1024)
  private var par = new Array[Int](1024)
  private var st = new Array[Long](1024)
  private var en = new Array[Long](1024)
  private var size = 0
  private var open = List.empty[Int]

  def count: Int = size

  def begin(name: String): Int = {
    if (size == nm.length) {
      val c = size * 2
      nm = java.util.Arrays.copyOf(nm, c); par = java.util.Arrays.copyOf(par, c)
      st = java.util.Arrays.copyOf(st, c); en = java.util.Arrays.copyOf(en, c)
    }
    val id = size
    nm(id) = nameIds.getOrElseUpdate(name, nameIds.size)
    par(id) = open.headOption.getOrElse(-1)
    en(id) = -1L
    size += 1
    open = id :: open
    st(id) = System.nanoTime()
    id
  }

  def end(id: Int): Unit = {
    en(id) = System.nanoTime()
    require(open.headOption.contains(id), s"span $id closed out of order")
    open = open.tail
  }

  def span[A](name: String)(f: => A): A = {
    val id = begin(name)
    try f finally end(id)
  }

  def parent(id: Int): Int = par(id)
  def nanos(id: Int): Long = en(id) - st(id)
  def ids(name: String): IndexedSeq[Int] = nameIds.get(name) match {
    case Some(k) => (0 until size).filter(nm(_) == k)
    case None    => IndexedSeq.empty
  }
  /** The root span of the request `id` belongs to. */
  def root(id: Int): Int = { var r = id; while (par(r) >= 0) r = par(r); r }

  /** Self time of every span: its duration minus the part its children cover. */
  def selfNanos(): Array[Long] = {
    val kids = Array.fill(size)(List.empty[(Long, Long)])
    var i = size - 1
    while (i >= 0) { if (par(i) >= 0) kids(par(i)) = (st(i), en(i)) :: kids(par(i)); i -= 1 }
    Array.tabulate(size)(j => Tracer.selfTime(st(j), en(j), kids(j)))
  }

  /** One JSON object per span. */
  def writeJsonLines(path: java.nio.file.Path): Unit = {
    val names = nameIds.toSeq.sortBy(_._2).map(_._1).toArray
    val self = selfNanos()
    val t0 = if (size == 0) 0L else st(0)
    val w = java.nio.file.Files.newBufferedWriter(path)
    try {
      var i = 0
      while (i < size) {
        w.write(s"""{"id":$i,"request":${root(i)},"parent":${par(i)},"name":"${names(nm(i))}",""" +
          s""""start_us":${(st(i) - t0) / 1000},"dur_us":${nanos(i) / 1000},"self_us":${self(i) / 1000}}""")
        w.newLine(); i += 1
      }
    } finally w.close()
  }
}

object Tracer {
  /** Duration of [start, end] not covered by the union of `children`
    * (each clipped to the parent's interval).
    */
  def selfTime(start: Long, end: Long, children: Seq[(Long, Long)]): Long = {
    var covered = 0L
    var curS = Long.MinValue; var curE = Long.MinValue
    children.map { case (s, e) => (s max start, e min end) }.filter { case (s, e) => e > s }
      .sortBy(_._1).foreach { case (s, e) =>
        if (s > curE) { if (curE > curS) covered += curE - curS; curS = s; curE = e }
        else curE = curE max e
      }
    if (curE > curS) covered += curE - curS
    (end - start) - covered
  }
}

/** Per-label Spark work observed from outside through a [[SparkListener]]:
  * jobs, tasks and summed task run time. The label is the local property
  * [[SparkObserver.Label]] the benchmark sets around a call.
  */
final class SparkObserver extends SparkListener {
  final class Counts { var jobs = 0L; var tasks = 0L; var busyMs = 0L }
  private val byLabel = mutable.Map.empty[String, Counts]
  private val stageLabel = mutable.Map.empty[Int, String]
  private var started = 0L
  private var ended = 0L
  private var lastEvent = System.nanoTime()

  private def counts(label: String): Counts = byLabel.getOrElseUpdate(label, new Counts)

  override def onJobStart(e: SparkListenerJobStart): Unit = synchronized {
    val label = Option(e.properties).flatMap(p => Option(p.getProperty(SparkObserver.Label))).getOrElse("other")
    e.stageIds.foreach(stageLabel(_) = label)
    counts(label).jobs += 1
    started += 1; lastEvent = System.nanoTime()
  }

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = synchronized {
    val c = counts(stageLabel.getOrElse(e.stageId, "other"))
    c.tasks += 1
    if (e.taskMetrics != null) c.busyMs += e.taskMetrics.executorRunTime
    lastEvent = System.nanoTime()
  }

  override def onJobEnd(e: SparkListenerJobEnd): Unit = synchronized {
    ended += 1; lastEvent = System.nanoTime()
  }

  /** Wait until every started job has ended and the bus has been quiet. */
  def drain(quietMs: Long = 300, timeoutMs: Long = 10000): Boolean = {
    val deadline = System.nanoTime() + timeoutMs * 1000000L
    def settled = synchronized { started == ended && System.nanoTime() - lastEvent > quietMs * 1000000L }
    while (!settled && System.nanoTime() < deadline) Thread.sleep(20)
    settled
  }

  def get(label: String): (Long, Long, Long) = synchronized {
    byLabel.get(label).map(c => (c.jobs, c.tasks, c.busyMs)).getOrElse((0L, 0L, 0L))
  }
}

object SparkObserver {
  val Label = "l2rbench.span"

  /** Run `f` with Spark jobs it starts attributed to `label`. */
  def labelled[A](sc: SparkContext, label: String)(f: => A): A = {
    sc.setLocalProperty(Label, label)
    try f finally sc.setLocalProperty(Label, null)
  }
}

/** Garbage-collection totals from the JVM's GC MXBeans. */
object Gc {
  /** (collections, collection time in ms) summed over all collectors. */
  def snapshot(): (Long, Long) =
    ManagementFactory.getGarbageCollectorMXBeans.asScala.foldLeft((0L, 0L)) { case ((c, t), b) =>
      (c + b.getCollectionCount.max(0L), t + b.getCollectionTime.max(0L))
    }
}
