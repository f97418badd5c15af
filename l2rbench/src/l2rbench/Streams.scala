package l2rbench

import org.apache.spark.sql.SparkSession
import repro.eval.Scenario
import repro.roadnet.{RoadNetGen, RoadNetwork}
import repro.traj.{TrajectoryGen, Trip}

/** A benchmark workload: the scenario that supplies the road network and the
  * training trips, and the query stream replayed against the fitted router.
  *
  * The training set is the scenario's own (its generator seed is fixed), so
  * fit time and model size measure the program and not the draw; the
  * workload seed draws the query stream.
  */
final case class Workload(
    name: String,
    /** "D1-lite" or "D2-lite" (see [[repro.eval.Scenario]]) */
    scenario: String,
    /** trip scale of the scenario configuration */
    scale: Double,
    /** true: future trips of the training demand; false: uniform OD pairs */
    demand: Boolean,
    /** queries in one run's stream */
    nQueries: Int) {

  def config: (RoadNetGen.Config, TrajectoryGen.Config, Seq[Double]) =
    if (scenario == "D2-lite") Scenario.d2Config(scale) else Scenario.d1Config(scale)
}

object Workload {
  /** Trip scales are chosen so that a warm fit takes about 8 s (D2-lite) and
    * 21 s (D1-lite) on 4 cores and 48 runs fit the benchmark's time budget;
    * below 0.1 the D1-lite fit gets slower, not faster, as sparse training
    * trips leave thousands of B-edges to the transfer stage.
    */
  val all: Seq[Workload] = Seq(
    Workload("d2-demand", "D2-lite", scale = 0.07, demand = true, nQueries = 3000),
    Workload("d1-uniform", "D1-lite", scale = 0.1, demand = false, nQueries = 1200))

  def byName(n: String): Workload =
    all.find(_.name == n).getOrElse(throw new IllegalArgumentException(s"unknown workload $n"))
}

/** The trips of one run: training set plus query stream. */
final case class Inputs(net: RoadNetwork, train: IndexedSeq[Trip], queries: IndexedSeq[Trip], bounds: Seq[Double])

/** Builds the training set and the query stream of a workload. */
object Streams {

  /** Future trips generated past the scenario's own stream for the demand
    * workload; its queries are a seeded sample of these and the scenario's
    * test trips.
    */
  val DemandPool = 4000

  /** Uniform-OD trips generated for the uniform workload, from a fixed
    * generator seed: the drivers' own preferences are the ground truth, and
    * a seed-dependent draw of 60 driver preferences would move the mean
    * similarity by more than any routing change.
    */
  val UniformPool = 1600
  val UniformSeedOffset = 1000L

  /** Last training id of a generated stream, cut as [[repro.eval.Scenario.build]]
    * cuts its own `nTrips`-long stream (`TrajectoryGen.split`).
    */
  def trainCut(trips: Seq[Trip], nTrips: Int, trainFrac: Double): Long =
    (trips.iterator.map(_.id).filter(_ < nTrips).maxOption.getOrElse(0L) * trainFrac).toLong

  /** Demand stream: the generator's trips are extended past the scenario's
    * `nTrips` (`specs` is prefix-stable in `nTrips`), training is the
    * scenario's id range, and the queries are a seeded sample of the rest.
    */
  def splitDemand(trips: Seq[Trip], nTrips: Int, trainFrac: Double,
                  seed: Long, nQueries: Int): (IndexedSeq[Trip], IndexedSeq[Trip]) = {
    val cut = trainCut(trips, nTrips, trainFrac)
    val sorted = trips.sortBy(_.id).toIndexedSeq
    val (train, future) = sorted.partition(_.id <= cut)
    (train, new scala.util.Random(seed).shuffle(future).take(nQueries))
  }

  /** Uniform-OD pool: every trip is background traffic routed by its
    * driver's own preference, generated with its own fixed seed.
    */
  def uniformConfig(base: TrajectoryGen.Config): TrajectoryGen.Config =
    base.copy(nTrips = UniformPool, pBackground = 1.0, seed = base.seed + UniformSeedOffset)

  /** A seeded sample of a uniform pool, with ids moved past `firstId` so that
    * no query shares an id with the training range.
    */
  def sampleUniform(pool: Seq[Trip], firstId: Long, seed: Long, nQueries: Int): IndexedSeq[Trip] =
    new scala.util.Random(seed).shuffle(pool.sortBy(_.id).toIndexedSeq).take(nQueries)
      .map(t => t.copy(id = t.id + firstId))

  private def generate(spark: SparkSession, net: RoadNetwork, cfg: TrajectoryGen.Config): Seq[Trip] =
    TrajectoryGen.generate(spark, net, cfg).collect().toSeq

  def build(spark: SparkSession, w: Workload, seed: Long): Inputs = {
    val (netCfg, trajCfg, bounds) = w.config
    val net = RoadNetGen.grid(netCfg)
    if (w.demand) {
      val trips = generate(spark, net, trajCfg.copy(nTrips = trajCfg.nTrips + DemandPool))
      val (train, queries) = splitDemand(trips, trajCfg.nTrips, trajCfg.trainFrac, seed, w.nQueries)
      Inputs(net, train, queries, bounds)
    } else {
      val (train, _) = TrajectoryGen.split(generate(spark, net, trajCfg).sortBy(_.id), trajCfg.trainFrac)
      val pool = generate(spark, net, uniformConfig(trajCfg))
      val queries = sampleUniform(pool, trajCfg.nTrips.toLong, seed, w.nQueries)
      Inputs(net, train.toIndexedSeq, queries, bounds)
    }
  }

  /** The stream invariants: the training set is exactly the scenario's, no
    * query id falls in the training range, and the stream has its size.
    * Returns the failed conditions.
    */
  def violations(spark: SparkSession, w: Workload, in: Inputs): Seq[String] = {
    val (_, trajCfg, _) = w.config
    val (scnTrain, _) = TrajectoryGen.split(generate(spark, in.net, trajCfg).sortBy(_.id), trajCfg.trainFrac)
    val lastTrain = in.train.map(_.id).max
    Seq(
      (in.train == scnTrain.toIndexedSeq) -> "training set differs from the scenario's",
      in.queries.forall(_.id > lastTrain) -> "a query id falls in the training range",
      (in.queries.size == w.nQueries) -> s"stream has ${in.queries.size} of ${w.nQueries} queries",
      in.queries.forall(_.path.length >= 2) -> "a query trip has no edge")
      .collect { case (false, msg) => msg }
  }
}
