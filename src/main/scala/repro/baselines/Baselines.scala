package repro.baselines

import repro.eval.PathSim
import repro.roadnet._
import repro.traj.Trip

import scala.collection.mutable

/** A query-time router. All comparison algorithms (and L2R itself, via an
  * adapter) implement this so the evaluator can fan queries out uniformly.
  */
trait Router {
  def name: String
  def route(driver: Int, s: Int, d: Int): Vector[Int]
}

/** Cost-centric and heuristic baselines of Section VII-C / VII-D. */
object Baselines {

  /** Dijkstra on distance. */
  final class Shortest(net: RoadNetwork) extends Router {
    val name = "Shortest"
    def route(driver: Int, s: Int, d: Int): Vector[Int] =
      net.dijkstra(s, d, CostType.DI).getOrElse(Vector(s, d))
  }

  /** Dijkstra on travel time. */
  final class Fastest(net: RoadNetwork) extends Router {
    val name = "Fastest"
    def route(driver: Int, s: Int, d: Int): Vector[Int] =
      net.dijkstra(s, d, CostType.TT).getOrElse(Vector(s, d))
  }

  /** Simulated commercial routing service (stands in for the Google
    * Directions API, see DESIGN.md): fastest-path routing with a bias
    * toward higher road classes, the dominant behaviour of commercial
    * ranking functions.
    */
  final class SimGoogle(net: RoadNetwork) extends Router {
    val name = "Google"
    private val factor = Map(1 -> 0.85, 2 -> 0.90, 3 -> 0.95, 4 -> 1.00, 5 -> 1.05, 6 -> 1.15)
    private val cost = net.column(e => e.tt * factor(e.rt))
    def route(driver: Int, s: Int, d: Int): Vector[Int] =
      net.dijkstra(s, d, cost).getOrElse(Vector(s, d))
  }
}

/** Dom [26]: personalised skyline routing. The original mines each driver's
  * dominating cost factors by comparing their trajectories to skyline
  * paths, then at query time runs a multi-objective search. We reproduce
  * that structure: per-driver weights over (DI, TT, FC) learned from
  * similarity to the three single-cost optimal paths, and an ε-dominance
  * label-correcting skyline search at query time (which is what makes Dom
  * an order of magnitude slower than single-criterion Dijkstra — Fig. 12).
  */
object Dom {

  final case class Model(weights: Map[Int, Array[Double]], default: Array[Double])

  /** Trips per driver (the first by id) that `fit` learns from. */
  private val MaxTripsPerDriver = 15
  /** Labels kept per vertex, and destination labels found, by the search. */
  private val MaxLabelsPerVertex = 6
  /** Relative slack of ε-dominance. */
  private val Eps = 0.02

  /** Learn per-driver weights from (a sample of) their training trips. */
  def fit(net: RoadNetwork, train: Seq[Trip]): Model = {
    val perDriver = train.groupBy(_.driver).map { case (drv, trips) =>
      val sample = trips.sortBy(_.id).take(MaxTripsPerDriver)
      val sums = new Array[Double](3)
      var cnt = 0
      sample.foreach { t =>
        val p = t.path.toVector
        if (p.length >= 2) {
          CostType.all.foreach { c =>
            val opt = net.dijkstra(p.head, p.last, c)
            sums(c.id) += opt.map(o => PathSim.sim1(net, p, o)).getOrElse(0.0)
          }
          cnt += 1
        }
      }
      // sharpen toward the driver's dominating factor (Dom mines dominance,
      // not a soft mixture): cube the similarity mass before normalising
      val w = if (cnt == 0) Array(1.0 / 3, 1.0 / 3, 1.0 / 3) else {
        val cubed = sums.map(v => v * v * v)
        val total = cubed.sum
        if (total <= 0) Array(1.0 / 3, 1.0 / 3, 1.0 / 3) else cubed.map(_ / total)
      }
      drv -> w
    }
    val default = {
      val ws = perDriver.values.toSeq
      if (ws.isEmpty) Array(1.0 / 3, 1.0 / 3, 1.0 / 3)
      else Array.tabulate(3)(i => ws.map(_(i)).sum / ws.size)
    }
    Model(perDriver, default)
  }

  /** ε-dominance multi-objective search (ε = `Eps`) with a cap of
    * `MaxLabelsPerVertex` labels per vertex: finds up to that many
    * Pareto-ish paths to the destination and returns the one minimising the
    * driver's weighted cost.
    */
  final class DomRouter(net: RoadNetwork, model: Model) extends Router {
    val name = "Dom"

    /** Compared by reference: "still in its bucket" means this very label. */
    private final class Label(val v: Int, val di: Double, val tt: Double, val fc: Double, val parent: Label) {
      def dominates(o: Label): Boolean =
        di <= o.di * (1 + Eps) && tt <= o.tt * (1 + Eps) && fc <= o.fc * (1 + Eps) &&
          (di < o.di || tt < o.tt || fc < o.fc)
    }

    def route(driver: Int, s: Int, d: Int): Vector[Int] = {
      val w = model.weights.getOrElse(driver, model.default)
      // per-query normalisation: single-cost optima put the three costs on
      // a common scale for the PQ order and the final skyline pick
      val opt = CostType.all.map { c =>
        val o = net.dijkstra(s, d, c).map(p => net.pathCost(p, c.of)).getOrElse(1.0)
        math.max(1e-9, o)
      }.toArray
      def score(di: Double, tt: Double, fc: Double): Double =
        w(0) * di / opt(0) + w(1) * tt / opt(1) + w(2) * fc / opt(2)
      val labels = mutable.Map.empty[Int, mutable.ArrayBuffer[Label]]
      val pq = mutable.PriorityQueue.empty[(Double, Label)](Ordering.by[(Double, Label), Double](_._1).reverse)
      val start = new Label(s, 0, 0, 0, null)
      labels.getOrElseUpdate(s, mutable.ArrayBuffer.empty) += start
      pq.enqueue((0.0, start))
      val dstLabels = mutable.ArrayBuffer.empty[Label]
      while (pq.nonEmpty && dstLabels.length < MaxLabelsPerVertex) {
        val (_, l) = pq.dequeue()
        val bucket = labels(l.v)
        if (bucket.contains(l)) { // not pruned since insertion
          if (l.v == d) dstLabels += l
          else net.adj(l.v).foreach { ei =>
            val e = net.edges(ei)
            val nl = new Label(e.dst, l.di + e.dist, l.tt + e.tt, l.fc + e.fc, l)
            val nb = labels.getOrElseUpdate(e.dst, mutable.ArrayBuffer.empty)
            if (!nb.exists(_.dominates(nl))) {
              nb.filterInPlace(ex => !nl.dominates(ex))
              nb += nl
              if (nb.length > MaxLabelsPerVertex) {
                // keep the best by scalarised score
                val keep = nb.sortBy(x => score(x.di, x.tt, x.fc)).take(MaxLabelsPerVertex)
                nb.clear(); nb ++= keep
              }
              if (nb.contains(nl)) pq.enqueue((score(nl.di, nl.tt, nl.fc), nl))
            }
          }
        }
      }
      if (dstLabels.isEmpty) net.dijkstra(s, d, CostType.TT).getOrElse(Vector(s, d))
      else {
        val best = dstLabels.minBy(l => score(l.di, l.tt, l.fc))
        val b = mutable.ArrayBuffer.empty[Int]
        var cur = best
        while (cur != null) { b += cur.v; cur = cur.parent }
        b.reverse.toVector
      }
    }
  }
}

/** TRIP [27]: personalised travel times. The original scales travel times
  * by per-driver ratios; with synthetic trips we realise the same
  * mechanism through per-driver road-type usage: road types a driver uses
  * more than the population average get proportionally "faster"
  * personalised times, then a single-criterion Dijkstra runs on the
  * personalised weights (hence TRIP's Fastest-like runtime — Fig. 12).
  */
object TripRouter {

  final case class Model(ratio: Map[Int, Array[Double]], default: Array[Double])

  /** Share of path length per road type (index 1..6). */
  private def usage(net: RoadNetwork, trips: Seq[Trip]): Array[Double] = {
    val len = new Array[Double](7)
    trips.foreach { t =>
      t.path.sliding(2).foreach {
        case Seq(a, b) =>
          net.edgeBetween(a, b).foreach(e => len(e.rt) += e.dist)
        case _ => ()
      }
    }
    val total = len.sum
    if (total <= 0) len else len.map(_ / total)
  }

  /** Trips per driver (the first by id) whose road-type usage `fit` reads. */
  private val MaxTripsPerDriver = 30

  def fit(net: RoadNetwork, train: Seq[Trip]): Model = {
    val pop = usage(net, train)
    val perDriver = train.groupBy(_.driver).map { case (drv, trips) =>
      val u = usage(net, trips.sortBy(_.id).take(MaxTripsPerDriver))
      val r = Array.tabulate(7) { rt =>
        if (pop(rt) <= 1e-9) 1.0
        else {
          // gentle personalisation: dampened ratio, tightly clamped — TRIP
          // is only *slightly* better than Fastest in the paper
          val raw = math.pow(u(rt) / math.max(1e-6, pop(rt)), 0.3)
          math.min(1.2, math.max(0.85, raw))
        }
      }
      drv -> r
    }
    Model(perDriver, Array.fill(7)(1.0))
  }

  final class Trip_(net: RoadNetwork, model: Model) extends Router {
    val name = "TRIP"
    /** A driver's personalised travel times as a cost column, built on the
      * driver's first route: one column per driver at construction would
      * cost O(drivers × edges) before any query.
      */
    private final class Personal(r: Array[Double]) {
      lazy val cost: EdgeCost = net.column(e => e.tt / math.max(0.5, r(e.rt)))
    }
    private val personal = model.ratio.map { case (drv, r) => drv -> new Personal(r) }
    private val default = new Personal(model.default)
    def route(driver: Int, s: Int, d: Int): Vector[Int] =
      net.dijkstra(s, d, personal.getOrElse(driver, default).cost).getOrElse(Vector(s, d))
  }
}
