package repro

import repro.roadnet._

/** Hand-built networks for unit tests. */
object TestNets {

  /** Build a bidirectional network from undirected (u, v, distKm, roadType)
    * tuples; tt/fc follow the generator's speed and fuel models.
    */
  def custom(coords: Seq[(Double, Double)], undirected: Seq[(Int, Int, Double, Int)]): RoadNetwork = {
    val vertices = coords.zipWithIndex.map { case ((x, y), i) => Vertex(i, x, y) }.toArray
    val edges = undirected.flatMap { case (u, v, len, rt) =>
      val speed = RoadNetGen.speedKmh(rt)
      val tt = len / speed * 60.0
      val fc = len * RoadNetGen.fcPerKm(speed)
      Seq(Edge(u, v, len, tt, fc, rt), Edge(v, u, len, tt, fc, rt))
    }.toArray
    new RoadNetwork(vertices, edges)
  }

  /** 0—1—2—…—(n-1) line with unit lengths, residential. */
  def line(n: Int, rt: Int = 6): RoadNetwork =
    custom(Seq.tabulate(n)(i => (i.toDouble, 0.0)),
           Seq.tabulate(n - 1)(i => (i, i + 1, 1.0, rt)))

  /** Small deterministic grid via the generator. */
  def smallGrid(cols: Int = 12, rows: Int = 10, seed: Long = 3L): RoadNetwork =
    RoadNetGen.grid(RoadNetGen.Config(cols, rows, spacingKm = 0.3, seed = seed))

  /** Vertices reachable from `src` over the undirected topology. */
  def reachableFrom(net: RoadNetwork, src: Int): Set[Int] = {
    val seen = scala.collection.mutable.Set(src)
    var frontier = List(src)
    while (frontier.nonEmpty) {
      frontier = frontier.flatMap { u =>
        (net.adj(u).map(net.edges(_).dst) ++ net.radj(u).map(net.edges(_).src)).filter(seen.add)
      }
    }
    seen.toSet
  }

  /** Brute-force lowest-cost path cost via Bellman-Ford (test oracle). */
  def bellmanFordCost(net: RoadNetwork, src: Int, dst: Int, cost: Edge => Double): Double = {
    val dist = Array.fill(net.n)(Double.PositiveInfinity)
    dist(src) = 0.0
    var changed = true
    var iter = 0
    while (changed && iter <= net.n) {
      changed = false
      net.edges.foreach { e =>
        if (dist(e.src) + cost(e) < dist(e.dst) - 1e-12) {
          dist(e.dst) = dist(e.src) + cost(e); changed = true
        }
      }
      iter += 1
    }
    dist(dst)
  }
}
