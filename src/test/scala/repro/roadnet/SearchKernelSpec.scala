package repro.roadnet

import repro.TestNets
import repro.TestNets.{needsFallback, refPref, refSearch, tieNet}

import org.scalacheck.rng.Seed
import org.scalacheck.{Gen, Prop, Test}

import java.io.{ByteArrayInputStream, ByteArrayOutputStream, ObjectInputStream, ObjectOutputStream}
import scala.util.Random
import org.scalatest.funsuite.AnyFunSuite

/** Tests of `RoadNetwork`'s search kernel: tie-exact agreement with the
  * library-heap loop it replaced, for one target, many targets and cost
  * columns, the reach pass of many-preference searches, per-thread
  * workspace safety, and its input checks.
  */
class SearchKernelSpec extends AnyFunSuite {

  private val prefs = Preference.all
  private val lambda: EdgeCost = e => e.dist + 2 * e.tt * (e.rt % 2)

  test("the kernel returns the replaced loop's exact path on tie-heavy random networks") {
    var unreachable = 0; var fallbacks = 0; var tieSensitive = 0
    // the same search with ties broken by vertex id instead of heap order
    val byVertex: Ordering[(Double, Int)] = (a, b) => {
      val c = java.lang.Double.compare(b._1, a._1)
      if (c != 0) c else Integer.compare(b._2, a._2)
    }
    for (seed <- 0 until 40) {
      val net = tieNet(new Random(5000 + seed))
      for (s <- 0 until net.n; d <- 0 until net.n) {
        prefs.foreach { pref =>
          val expect = refPref(net, s, d, pref)
          assert(net.prefDijkstra(s, d, pref) === expect, s"seed $seed $s→$d $pref")
          if (expect.isEmpty) unreachable += 1
          else if (needsFallback(net, s, d, pref)) fallbacks += 1
          if (refPref(net, s, d, pref, byVertex) != expect) tieSensitive += 1
        }
        assert(net.dijkstra(s, d, lambda) === refSearch(net, s, d, lambda, -1), s"seed $seed $s→$d lambda")
      }
    }
    assert(unreachable > 0 && fallbacks > 0, s"unreachable=$unreachable fallbacks=$fallbacks")
    assert(tieSensitive > 1000, s"only $tieSensitive searches depend on the tie order")
  }

  test("a many-target search returns each target's single-target path (scalacheck)") {
    var duplicates = 0; var srcTargets = 0; var unreachable = 0; var fallbacks = 0; var fallbacksWithoutPlain = 0
    val cases = for {
      seed <- Gen.choose(0L, Long.MaxValue)
      net = tieNet(new Random(seed))
      src <- Gen.choose(0, net.n - 1)
      targets <- Gen.nonEmptyListOf(Gen.frequency(6 -> Gen.choose(0, net.n - 1), 1 -> Gen.const(src)))
      // all 21 preferences as learning asks for them, or a few, which may repeat
      // and may lack a slave preference's master-only search
      ps <- Gen.frequency(1 -> Gen.const(prefs), 3 -> Gen.listOfN(4, Gen.oneOf(prefs)))
    } yield (net, src, targets.toVector, ps)
    val prop = Prop.forAllNoShrink(cases) { case (net, src, targets, ps) =>
      if (targets.distinct.size < targets.size) duplicates += 1
      if (targets.contains(src)) srcTargets += 1
      val expect = ps.map(pref => targets.map(refPref(net, src, _, pref)))
      unreachable += expect.map(_.count(_.isEmpty)).sum
      ps.foreach { pref =>
        val n = targets.count(needsFallback(net, src, _, pref))
        fallbacks += n
        if (!ps.contains(Preference(pref.master, None))) fallbacksWithoutPlain += n
      }
      net.prefDijkstraMany(src, targets, ps) == expect
    }
    val result = Test.check(Test.Parameters.default.withMinSuccessfulTests(400).withInitialSeed(Seed(11L)), prop)
    assert(result.passed, result.status)
    assert(duplicates > 0 && srcTargets > 0 && unreachable > 0 && fallbacks > 0 && fallbacksWithoutPlain > 0,
      s"duplicates=$duplicates src=$srcTargets unreachable=$unreachable fallbacks=$fallbacks " +
      s"fallbacksWithoutPlain=$fallbacksWithoutPlain")
  }

  test("the reach pass finds the targets a restricted search reaches, and skipping the rest moves no path (scalacheck)") {
    var reached = 0; var missed = 0; var skipped = 0
    val cases = for {
      seed <- Gen.choose(0L, Long.MaxValue)
      net = tieNet(new Random(seed))
      src <- Gen.choose(0, net.n - 1)
      targets <- Gen.nonEmptyListOf(Gen.choose(0, net.n - 1))
    } yield (net, src, targets.toVector)
    val prop = Prop.forAllNoShrink(cases) { case (net, src, targets) =>
      val passes = (1 to 6).map { rt =>
        val reach = net.slaveReach(src, targets.toArray, rt).toSeq
        val expect = targets.map(refSearch(net, src, _, CostType.DI, rt).isDefined)
        reached += expect.count(r => r); missed += expect.count(r => !r)
        // no target reachable: Preference.all's restricted searches of rt do not run
        if (!reach.contains(true)) skipped += 1
        reach == expect
      }
      passes.forall(identity) && net.prefDijkstraMany(src, targets, prefs) == prefs.map(p => targets.map(refPref(net, src, _, p)))
    }
    val result = Test.check(Test.Parameters.default.withMinSuccessfulTests(400).withInitialSeed(Seed(17L)), prop)
    assert(result.passed, result.status)
    assert(reached > 0 && missed > 0 && skipped > 0, s"reached=$reached missed=$missed skipped=$skipped")
  }

  test("an infinite edge cost leaves every preference's paths as the reference loop's") {
    // the reach pass finds targets that a restricted search under TT cannot settle
    var unsettled = 0
    for (seed <- 0 until 40) {
      val base = tieNet(new Random(9000 + seed))
      val rnd = new Random(seed)
      val net = new RoadNetwork(base.vertices,
        base.edges.map(e => if (rnd.nextInt(3) == 0) e.copy(tt = Double.PositiveInfinity) else e))
      val all = 0 until net.n
      for (s <- all) {
        assert(net.prefDijkstraMany(s, all, prefs) === prefs.map(p => all.map(refPref(net, s, _, p))), s"seed $seed from $s")
        for (rt <- 1 to 3) {
          val reach = net.slaveReach(s, all.toArray, rt)
          unsettled += all.count(t => reach(t) && refSearch(net, s, t, CostType.TT, rt).isEmpty)
        }
      }
    }
    assert(unsettled > 0)
  }

  test("a cost column returns the lambda's path on tie-heavy random networks") {
    for (seed <- 0 until 40) {
      val net = tieNet(new Random(7000 + seed))
      val col = net.column(lambda)
      net.edges.foreach(e => assert(col.of(e) === lambda.of(e)))
      for (s <- 0 until net.n; d <- 0 until net.n)
        assert(net.dijkstra(s, d, col) === refSearch(net, s, d, lambda, -1), s"seed $seed $s→$d")
      // another network evaluates it per search
      val copy = new RoadNetwork(net.vertices, net.edges)
      assert(copy.dijkstra(0, net.n - 1, col) === net.dijkstra(0, net.n - 1, lambda))
    }
    intercept[IllegalArgumentException](grid.column(_ => -1.0))
    intercept[IllegalArgumentException](grid.column(_ => Double.NaN))
  }

  // --------------------------------------------------- workspace safety

  private val grid = TestNets.smallGrid(14, 12)

  /** Seeded (s, d, query) triples over `net`, mixing feature, lambda and
    * preference searches.
    */
  private def queries(net: RoadNetwork, count: Int, seed: Int): IndexedSeq[RoadNetwork => Option[Vector[Int]]] = {
    val rnd = new Random(seed)
    IndexedSeq.fill(count) {
      val s = rnd.nextInt(net.n); val d = rnd.nextInt(net.n)
      val pref = prefs(rnd.nextInt(prefs.length))
      rnd.nextInt(3) match {
        case 0 => (g: RoadNetwork) => g.dijkstra(s, d, pref.master)
        case 1 => (g: RoadNetwork) => g.dijkstra(s, d, lambda)
        case _ => (g: RoadNetwork) => g.prefDijkstra(s, d, pref)
      }
    }
  }

  test("four threads sharing a network return the paths of one thread") {
    val qs = queries(grid, 300, 21)
    val expect = qs.map(_(grid))
    val results = Array.ofDim[IndexedSeq[Option[Vector[Int]]]](4)
    val threads = (0 until 4).map { t =>
      new Thread(() => {
        // each thread starts at a different offset, so different searches overlap
        val order = qs.indices.map(i => (i + 75 * t) % qs.length)
        results(t) = order.map(i => i -> qs(i)(grid)).sortBy(_._1).map(_._2)
      })
    }
    threads.foreach(_.start()); threads.foreach(_.join())
    (0 until 4).foreach(t => assert(results(t) === expect, s"thread $t"))
  }

  test("a search after an early-exit or an unreachable search equals it on a fresh network") {
    // the grid plus an isolated two-vertex component
    val vs = grid.vertices ++ Seq(Vertex(grid.n, -5, -5), Vertex(grid.n + 1, -6, -5))
    val es = grid.edges ++ Seq(Edge(grid.n, grid.n + 1, 1, 1, 1, 6), Edge(grid.n + 1, grid.n, 1, 1, 1, 6))
    val net = new RoadNetwork(vs, es)
    val rnd = new Random(3)
    for (_ <- 0 until 40) {
      val s = rnd.nextInt(grid.n); val d = rnd.nextInt(grid.n)
      val pref = prefs(rnd.nextInt(prefs.length))
      val rt = 1 + rnd.nextInt(6)
      assert(net.dijkstra(s, (s + 1) % grid.n, CostType.TT).isDefined) // stops early
      assert(net.prefDijkstra(s, d, pref) === new RoadNetwork(vs, es).prefDijkstra(s, d, pref))
      assert(net.dijkstra(s, grid.n, CostType.DI).isEmpty) // exhausts s's component
      assert(net.dijkstra(s, d, lambda) === new RoadNetwork(vs, es).dijkstra(s, d, lambda))
      // a reach pass borrows the stamps and `parent`: one that exhausts s's
      // restricted component, then one that stops early
      assert(!net.slaveReach(s, Array(grid.n, d), rt)(0))
      assert(net.prefDijkstra(s, d, pref) === new RoadNetwork(vs, es).prefDijkstra(s, d, pref))
      assert(net.slaveReach(s, Array(s), rt)(0))
      assert(net.dijkstra(s, d, lambda) === new RoadNetwork(vs, es).dijkstra(s, d, lambda))
      val ds = IndexedSeq(d, grid.n, s)
      assert(net.prefDijkstraMany(s, ds, prefs) === new RoadNetwork(vs, es).prefDijkstraMany(s, ds, prefs))
    }
  }

  private def serialise(o: AnyRef): Array[Byte] = {
    val bytes = new ByteArrayOutputStream()
    val out = new ObjectOutputStream(bytes)
    out.writeObject(o); out.close()
    bytes.toByteArray
  }

  test("a Java-serialised copy routes identically and searches do not grow the serialised form") {
    val net = TestNets.smallGrid(14, 12)
    val before = serialise(net)
    val copy = new ObjectInputStream(new ByteArrayInputStream(before)).readObject().asInstanceOf[RoadNetwork]
    val qs = queries(net, 200, 8)
    assert(qs.map(_(copy)) === qs.map(_(net)))
    assert(serialise(net).length === before.length)
    assert(serialise(copy).length === before.length)
  }

  // --------------------------------------------------- input checks

  private val v3 = Array(Vertex(0, 0, 0), Vertex(1, 1, 0), Vertex(2, 2, 0))
  private def edge(u: Int, v: Int) = Edge(u, v, 1, 1, 1, 6)

  test("the constructor requires vertex ids 0..n-1") {
    intercept[IllegalArgumentException](new RoadNetwork(Array(Vertex(0, 0, 0), Vertex(2, 1, 0)), Array(edge(0, 1))))
    intercept[IllegalArgumentException](new RoadNetwork(v3.reverse, Array.empty[Edge]))
  }

  test("the constructor requires edge endpoints to be vertex ids") {
    intercept[IllegalArgumentException](new RoadNetwork(v3, Array(edge(0, 3))))
    intercept[IllegalArgumentException](new RoadNetwork(v3, Array(edge(-1, 2))))
  }

  test("a cost-feature search rejects negative and NaN edge costs") {
    val neg = new RoadNetwork(v3, Array(edge(0, 1), edge(1, 2).copy(dist = -0.5)))
    intercept[IllegalArgumentException](neg.dijkstra(0, 2, CostType.DI))
    intercept[IllegalArgumentException](neg.prefDijkstra(0, 1, Preference(CostType.DI, Some(6))))
    val nan = new RoadNetwork(v3, Array(edge(0, 1).copy(tt = Double.NaN), edge(1, 2)))
    intercept[IllegalArgumentException](nan.dijkstra(2, 0, CostType.TT))
  }

  test("a lambda-cost search rejects negative and NaN edge costs") {
    // a negative cost here could re-parent the settled vertex 0
    val net = new RoadNetwork(v3, Array(edge(0, 1), edge(1, 0), edge(1, 2)))
    intercept[IllegalArgumentException](net.dijkstra(0, 2, e => if (e.src == 1 && e.dst == 0) -5.0 else 1.0))
    intercept[IllegalArgumentException](net.dijkstra(0, 2, e => if (e.dst == 2) Double.NaN else 1.0))
    assert(net.dijkstra(0, 2, _ => 1.0) === Some(Vector(0, 1, 2)))
  }
}
