package repro

import org.apache.spark.scheduler.{SparkListener, SparkListenerEvent, SparkListenerJobEnd, SparkListenerJobStart}

import scala.collection.mutable

/** Counts the Spark jobs a piece of code starts, for tests that pin a stage
  * to the driver.
  */
object SparkJobs {
  private val Label = "repro.test.jobLabel"

  /** Counts the Spark jobs started by threads carrying its label. */
  private final class JobCounter(label: String) extends SparkListener {
    private val running = mutable.Set.empty[Int]
    private var started = 0
    private var lastEvent = System.nanoTime()

    override def onJobStart(e: SparkListenerJobStart): Unit = synchronized {
      if (e.properties != null && e.properties.getProperty(Label) == label) { started += 1; running += e.jobId }
      lastEvent = System.nanoTime()
    }
    override def onJobEnd(e: SparkListenerJobEnd): Unit = synchronized { running -= e.jobId; lastEvent = System.nanoTime() }
    override def onOtherEvent(e: SparkListenerEvent): Unit = synchronized { lastEvent = System.nanoTime() }

    def jobs: Int = synchronized(started)

    /** Waits until every counted job has ended and the bus has been quiet
      * for `quietMs`; false on timeout.
      */
    def drain(quietMs: Long = 300, timeoutMs: Long = 10000): Boolean = {
      val deadline = System.nanoTime() + timeoutMs * 1000000L
      def settled = synchronized(running.isEmpty && System.nanoTime() - lastEvent > quietMs * 1000000L)
      while (!settled && System.nanoTime() < deadline) Thread.sleep(20)
      settled
    }
  }

  /** The number of Spark jobs `f` starts, from its thread or threads it
    * creates, once the listener bus is quiet.
    */
  def jobsOf(sc: org.apache.spark.SparkContext)(f: => Any): Int = {
    val label = java.util.UUID.randomUUID().toString
    val counter = new JobCounter(label)
    sc.addSparkListener(counter)
    try {
      sc.setLocalProperty(Label, label)
      try f finally sc.setLocalProperty(Label, null)
      assert(counter.drain(), "the Spark listener bus did not go quiet")
      counter.jobs
    } finally sc.removeSparkListener(counter)
  }
}
