package repro.eval

import org.apache.spark.sql.SparkSession
import repro.baselines._
import repro.core._
import repro.roadnet.{RoadNetGen, RoadNetwork}
import repro.traj.{TrajectoryGen, Trip}

/** A fully materialised experiment scenario: network, train/test trips,
  * fitted L2R model and all routers — shared by benches and jobs so every
  * table is produced from the same artefacts.
  */
final case class Scenario(
    name: String,
    net: RoadNetwork,
    train: Seq[Trip],
    test: Seq[Trip],
    model: L2RPipeline.Model,
    routers: Seq[Router],
    /** Table II / Fig. 10 distance-bucket boundaries (km). */
    bounds: Seq[Double])

object Scenario {

  final class L2RAdapter(router: L2RRouter) extends Router {
    val name = "L2R"
    def route(driver: Int, s: Int, d: Int): Vector[Int] = router.route(s, d)
  }

  /** D1-lite: Denmark-like wide area; demand is strongly local (91.6% of
    * the paper's D1 trips are under 10 km) with a thin long-distance tail.
    */
  def d1Config(scale: Double): (RoadNetGen.Config, TrajectoryGen.Config, Seq[Double]) = (
    RoadNetGen.D1,
    TrajectoryGen.Config(
      nTrips = (8000 * scale).toInt.max(200), nDrivers = 60, nZones = 15,
      zoneRadiusKm = 4.0, seed = 101L, longDistKm = 25.0, distDecayKm = 5.0,
      pBackground = 0.05),
    Seq(0, 10, 50, 100, 500))

  /** D2-lite: Chengdu-like dense city; trips peak at 2–5 km. */
  def d2Config(scale: Double): (RoadNetGen.Config, TrajectoryGen.Config, Seq[Double]) = (
    RoadNetGen.D2,
    TrajectoryGen.Config(
      nTrips = (6000 * scale).toInt.max(200), nDrivers = 80, nZones = 16,
      zoneRadiusKm = 2.0, seed = 202L, longDistKm = 7.0, distDecayKm = 3.0,
      pBackground = 0.05),
    Seq(0, 2, 5, 10, 35))

  /** Build a scenario end-to-end, without Spark: generation on the driver
    * pool (`TrajectoryGen.generateLocal`) → split → fit of the training
    * trips → routers.
    */
  def build(name: String, netCfg: RoadNetGen.Config, trajCfg: TrajectoryGen.Config,
            bounds: Seq[Double]): Scenario = {
    val net = RoadNetGen.grid(netCfg)
    val (train, test) = TrajectoryGen.split(TrajectoryGen.generateLocal(net, trajCfg), trajCfg.trainFrac)
    val model = L2RPipeline.fit(net, train)
    val dom = Dom.fit(net, train)
    val trip = TripRouter.fit(net, train)
    val routers = Seq(
      new L2RAdapter(model.router(net)),
      new Baselines.Shortest(net),
      new Baselines.Fastest(net),
      new Dom.DomRouter(net, dom),
      new TripRouter.Trip_(net, trip),
      new Baselines.SimGoogle(net))
    Scenario(name, net, train, test, model, routers, bounds)
  }

  def d1(scale: Double): Scenario = {
    val (n, t, b) = d1Config(scale); build("D1-lite", n, t, b)
  }

  def d2(scale: Double): Scenario = {
    val (n, t, b) = d2Config(scale); build("D2-lite", n, t, b)
  }

  /** The network seed of [[tiny]]; its trips use the next one. */
  private val TinySeed = 5L

  /** [[tiny]]; kept for l2rbench until the benchmark PR; `spark` is unused. */
  def tiny(spark: SparkSession): Scenario = tiny()

  /** A small scenario for unit tests (fast, still end-to-end). */
  def tiny(): Scenario = {
    val netCfg = RoadNetGen.Config(cols = 28, rows = 20, spacingKm = 0.4, seed = TinySeed)
    val trajCfg = TrajectoryGen.Config(nTrips = 900, nDrivers = 20, nZones = 6,
      zoneRadiusKm = 1.2, seed = TinySeed + 1, longDistKm = 5.0)
    build("tiny", netCfg, trajCfg, Seq(0, 2, 5, 10, 35))
  }
}
