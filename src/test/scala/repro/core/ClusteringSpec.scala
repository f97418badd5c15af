package repro.core

import repro.core.Clustering.{ClusterEdge, cluster, modularityGain}
import org.scalatest.funsuite.AnyFunSuite

class ClusteringSpec extends AnyFunSuite {

  test("modularity gain matches the paper's formula") {
    // ΔQ = s_ij/S − S_i·S_j/S²
    assert(math.abs(modularityGain(10, 20, 30, 100) - (0.1 - 600.0 / 10000)) < 1e-12)
  }

  test("modularity gain can be negative for popular hubs") {
    assert(modularityGain(1, 60, 60, 100) < 0)
  }

  test("empty input yields no regions") {
    assert(cluster(Nil).isEmpty)
  }

  test("a single edge with positive gain merges into one region") {
    // S = s01 = 5; ΔQ = 5/5 − 5·5/25 = 0 → NOT merged (non-positive)
    val r1 = cluster(Seq(ClusterEdge(0, 1, 5, 1)))
    assert(r1.size === 2)
    // two parallel communities: the cross edge keeps gains positive inside
    val r2 = cluster(Seq(ClusterEdge(0, 1, 10, 1), ClusterEdge(2, 3, 10, 1), ClusterEdge(1, 2, 1, 1)))
    assert(r2.exists(_.members === Set(0, 1)))
    assert(r2.exists(_.members === Set(2, 3)))
  }

  test("every input vertex lands in exactly one region") {
    val edges = Seq(
      ClusterEdge(0, 1, 10, 1), ClusterEdge(1, 2, 10, 1),
      ClusterEdge(3, 4, 8, 2), ClusterEdge(4, 5, 8, 2),
      ClusterEdge(2, 3, 1, 3))
    val regions = cluster(edges)
    val all = regions.flatMap(_.members)
    assert(all.sorted === Seq(0, 1, 2, 3, 4, 5))
    assert(all.distinct.size === all.size)
  }

  test("region ids are dense and unique") {
    val edges = Seq(ClusterEdge(0, 1, 10, 1), ClusterEdge(2, 3, 10, 2), ClusterEdge(1, 2, 1, 1))
    val regions = cluster(edges)
    assert(regions.map(_.id).sorted === regions.indices)
  }

  test("road-type boundary splits an otherwise mergeable chain") {
    // two dense same-type communities joined by a different-type bridge
    val edges = Seq(
      ClusterEdge(0, 1, 20, 1), ClusterEdge(1, 2, 20, 1),
      ClusterEdge(2, 3, 20, 2), // bridge of different type
      ClusterEdge(3, 4, 20, 3), ClusterEdge(4, 5, 20, 3))
    val regions = cluster(edges)
    // no region may contain vertices from both ends
    assert(!regions.exists(r => r.members.contains(0) && r.members.contains(5)))
  }

  test("homogeneous road type inside regions built from distinct-type graphs") {
    val edges = Seq(
      ClusterEdge(0, 1, 30, 1), ClusterEdge(1, 2, 30, 1), ClusterEdge(2, 0, 30, 1),
      ClusterEdge(2, 3, 1, 6),
      ClusterEdge(3, 4, 30, 6), ClusterEdge(4, 5, 30, 6), ClusterEdge(5, 3, 30, 6))
    val regions = cluster(edges)
    val rtOf = edges.flatMap(e => Seq((e.u, e.v) -> e.rt, (e.v, e.u) -> e.rt)).toMap
    regions.filter(_.members.size > 1).foreach { r =>
      val internalRts = for {
        a <- r.members; b <- r.members if a < b && rtOf.contains((a, b))
      } yield rtOf((a, b))
      assert(internalRts.toSet.size <= 1, s"mixed types inside region ${r.members}")
    }
  }

  test("the paper's Figure-4 shape: hub merges with same-type popular neighbours only") {
    // Y(=0) has popular rt-1 edges to K(=1), X(=2); unpopular edges to
    // B3(=3), F1(=4) whose gains are negative; rt-2 edge to J(=5).
    val edges = Seq(
      ClusterEdge(0, 1, 100, 1), ClusterEdge(0, 2, 100, 1),
      ClusterEdge(1, 2, 80, 1),
      ClusterEdge(0, 3, 1, 1), ClusterEdge(0, 4, 1, 1),
      ClusterEdge(0, 5, 2, 2),
      // give 3,4,5 their own mass so their product terms are significant
      ClusterEdge(3, 6, 50, 4), ClusterEdge(4, 7, 50, 5), ClusterEdge(5, 8, 50, 2))
    val regions = cluster(edges)
    val yRegion = regions.find(_.members.contains(0)).get
    assert(yRegion.members.contains(1) && yRegion.members.contains(2), "Y merges with K and X")
    assert(!yRegion.members.contains(5), "different road type J is excluded")
  }

  test("SelectM: a simple vertex merges only the largest same-edge-type group") {
    // hub 0 with two rt-1 edges and one rt-2 edge, all with positive gain
    // (the heavy disjoint edge (10,11) inflates S so all three gains are >0)
    val edges = Seq(
      ClusterEdge(0, 1, 20, 1), ClusterEdge(0, 2, 20, 1), ClusterEdge(0, 3, 20, 2),
      ClusterEdge(1, 2, 5, 1), ClusterEdge(3, 4, 5, 2),
      ClusterEdge(10, 11, 200, 5))
    val regions = cluster(edges)
    val hub = regions.find(_.members.contains(0)).get
    assert(hub.members.contains(1) && hub.members.contains(2), "rt-1 group merges")
    assert(!hub.members.contains(3), "rt-2 neighbour must not join the rt-1 merge")
  }

  test("clusters do not grow without bound (modularity self-limits)") {
    // a long uniform chain: modularity caps cluster sizes well below n
    val n = 60
    val edges = (0 until n - 1).map(i => ClusterEdge(i, i + 1, 10, 1))
    val regions = cluster(edges)
    assert(regions.size >= 3, "a uniform chain must break into multiple regions")
    assert(regions.forall(_.members.size < n))
  }

  test("terminates on dense graphs") {
    val rnd = new scala.util.Random(3)
    val edges = (for (i <- 0 until 40; j <- i + 1 until 40 if rnd.nextDouble() < 0.2)
      yield ClusterEdge(i, j, 1 + rnd.nextInt(20), 1 + rnd.nextInt(3))).toSeq
    val regions = cluster(edges)
    val members = regions.flatMap(_.members)
    assert(members.distinct.size === members.size)
    assert(members.toSet === edges.flatMap(e => Seq(e.u, e.v)).toSet)
  }

  test("disconnected trajectory graphs cluster independently") {
    val edges = Seq(
      ClusterEdge(0, 1, 10, 1), ClusterEdge(1, 2, 10, 1),
      ClusterEdge(10, 11, 10, 2), ClusterEdge(11, 12, 10, 2))
    val regions = cluster(edges)
    assert(!regions.exists(r => r.members.contains(0) && r.members.contains(10)))
  }

  test("popularity drives merge order deterministically") {
    val edges = Seq(ClusterEdge(0, 1, 10, 1), ClusterEdge(2, 3, 10, 2), ClusterEdge(1, 2, 1, 1))
    assert(cluster(edges).map(_.members).toSet === cluster(edges).map(_.members).toSet)
  }
}
