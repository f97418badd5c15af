package repro.core

import org.apache.spark.scheduler.{SparkListener, SparkListenerEvent, SparkListenerJobEnd, SparkListenerJobStart}
import repro.traj.TrajectoryGen
import repro.{SparkSpec, TestNets}

import java.io.{ByteArrayOutputStream, ObjectOutputStream}
import scala.collection.mutable

/** `L2RPipeline.fit` as a whole: the model does not depend on how the
  * training trips are partitioned, and the fit starts no Spark job of its
  * own.
  */
class L2RPipelineSpec extends SparkSpec {
  import L2RPipelineSpec._
  import spark.implicits._

  private lazy val net = TestNets.smallGrid(14, 10)
  private lazy val trips = TrajectoryGen.generateLocal(net,
    TrajectoryGen.Config(nTrips = 400, nDrivers = 8, nZones = 4, zoneRadiusKm = 0.8, seed = 31L))

  private def serialise(o: AnyRef): Array[Byte] = {
    val bytes = new ByteArrayOutputStream()
    val out = new ObjectOutputStream(bytes)
    out.writeObject(o); out.close()
    bytes.toByteArray
  }

  /** Learned preferences with `avgSim` as its raw bits. */
  private def exact(learned: Seq[PreferenceLearning.LearnedPref]) =
    learned.map(lp => (lp.copy(avgSim = 0.0), java.lang.Double.doubleToRawLongBits(lp.avgSim)))

  test("a fit gives the same model from a 1-partition and a 5-partition Dataset") {
    val one = spark.createDataset(trips).coalesce(1)
    val five = spark.createDataset(trips).repartition(5)
    assert(one.rdd.getNumPartitions === 1 && five.rdd.getNumPartitions === 5)
    val shuffled = five.collect().toSeq
    assert(shuffled != trips && shuffled.sortBy(_.id) === trips.sortBy(_.id), "repartition must reorder the trips")

    val a = L2RPipeline.fit(spark, net, one)
    val b = L2RPipeline.fit(spark, net, five)
    assert(a.nTEdges > 0 && a.nBEdges > 0)
    assert(serialise(a.index).sameElements(serialise(b.index)), "serialised RegionGraphIndex differs")
    assert(a.regions === b.regions)
    assert(exact(a.learned) === exact(b.learned))
    assert(a.transfer.prefs === b.transfer.prefs)
  }

  test("fit runs no Spark job beyond collecting the trips") {
    // the counter sees a job, and only the labelled thread's
    assert(jobsOf(spark.sparkContext)(spark.sparkContext.parallelize(1 to 10, 2).count()) === 1)
    val ds = spark.createDataset(trips)
    // a Dataset of local rows collects without a job
    assert(jobsOf(spark.sparkContext)(L2RPipeline.fit(spark, net, ds)) === 0)
  }
}

object L2RPipelineSpec {
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
