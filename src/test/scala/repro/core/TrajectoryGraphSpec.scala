package repro.core

import org.apache.spark.sql.DataFrame
import repro.traj.Trip
import repro.{Oracle, SparkSpec, TestNets}

class TrajectoryGraphSpec extends SparkSpec {
  import spark.implicits._

  private val net = TestNets.line(8)

  private val trips = Seq(
    Trip(0, 0, Seq(0, 1, 2, 3), 10),
    Trip(1, 1, Seq(1, 2, 3, 4), 10),
    Trip(2, 0, Seq(3, 2, 1), 10), // reverse direction — same undirected edges
    Trip(3, 2, Seq(5, 6), 10))

  private def pop(trips: Seq[Trip]): Map[(Int, Int), Double] =
    TrajectoryGraph.clusterInput(trips, net).map(e => (e.u, e.v) -> e.pop).toMap

  /** The trips as raw (trip, position, vertex) rows, all columns strings. */
  private def tripVertices: DataFrame =
    trips.flatMap(t => t.path.zipWithIndex.map { case (v, i) => (t.id.toString, i.toString, v.toString) })
      .toDF("trip", "pos", "vertex")

  /** Each trip's distinct undirected hops (u < v), from consecutive positions. */
  private val hopsSql =
    "SELECT DISTINCT a.trip, least(CAST(a.vertex AS INT), CAST(b.vertex AS INT)) AS u, " +
    "greatest(CAST(a.vertex AS INT), CAST(b.vertex AS INT)) AS v " +
    "FROM tv a JOIN tv b ON a.trip = b.trip AND CAST(b.pos AS INT) = CAST(a.pos AS INT) + 1"

  test("tripEdges canonicalises undirected edges (u < v)") {
    val e = TrajectoryGraph.clusterInput(trips, net)
    assert(e.nonEmpty && e.forall(r => r.u < r.v))
  }

  test("tripEdges deduplicates edges within a trip") {
    val loop = Seq(Trip(0, 0, Seq(0, 1, 0, 1), 1))
    assert(pop(loop) === Map((0, 1) -> 1.0))
  }

  test("edge popularity counts distinct trajectories per undirected edge") {
    val p = pop(trips)
    assert(p((1, 2)) === 3) // trips 0, 1, 2
    assert(p((2, 3)) === 3)
    assert(p((0, 1)) === 1)
    assert(p((3, 4)) === 1)
    assert(p((5, 6)) === 1)
  }

  test("edge popularity matches the DuckDB oracle") {
    val driver = TrajectoryGraph.clusterInput(trips, net)
      .map(e => (e.u.toString, e.v.toString, e.pop.toLong.toString)).toDF("u", "v", "pop")
    Oracle.assertEquivalent(driver,
      s"SELECT CAST(u AS VARCHAR) AS u, CAST(v AS VARCHAR) AS v, CAST(n AS VARCHAR) AS pop " +
      s"FROM (SELECT u, v, COUNT(*) AS n FROM ($hopsSql) GROUP BY u, v)",
      "tv" -> tripVertices)
  }

  test("vertex popularity is the sum of incident edge popularities") {
    val e = TrajectoryGraph.clusterInput(trips, net)
    def s(v: Int) = e.filter(x => x.u == v || x.v == v).map(_.pop).sum
    assert(s(2) === 6) // (1,2)=3 + (2,3)=3
    assert(s(0) === 1)
    assert(s(4) === 1)
  }

  test("vertex popularity matches the DuckDB oracle") {
    val driver = TrajectoryGraph.clusterInput(trips, net)
      .flatMap(e => Seq(e.u -> e.pop, e.v -> e.pop)).groupMapReduce(_._1)(_._2)(_ + _)
      .toSeq.map { case (v, p) => (v.toString, p.toLong.toString) }.toDF("v", "pop")
    Oracle.assertEquivalent(driver,
      s"SELECT CAST(w AS VARCHAR) AS v, CAST(COUNT(*) AS VARCHAR) AS pop FROM " +
      s"(SELECT u AS w FROM ($hopsSql) UNION ALL SELECT v FROM ($hopsSql)) GROUP BY w",
      "tv" -> tripVertices)
  }

  test("clusterInput attaches road types from the network") {
    val input = TrajectoryGraph.clusterInput(spark.createDataset(trips), net)
    assert(input.nonEmpty)
    assert(input.forall(_.rt === 6)) // TestNets.line uses residential
    assert(input.find(e => e.u == 1 && e.v == 2).get.pop === 3.0)
    assert(input === TrajectoryGraph.clusterInput(trips, net))
  }

  test("clusterInput rejects a trip hop that is not a road edge") {
    val hostile = trips :+ Trip(7, 1, Seq(4, 5, 7), 10) // 5 → 7 skips vertex 6
    val e = intercept[IllegalArgumentException](TrajectoryGraph.clusterInput(hostile, net))
    assert(e.getMessage.contains("trip 7") && e.getMessage.contains("5 → 7"), e.getMessage)
  }

  test("single-vertex paths contribute no edges") {
    assert(TrajectoryGraph.clusterInput(Seq(Trip(0, 0, Seq(4), 1)), net).isEmpty)
  }

  test("popularity of uncovered edges is absent, not zero") {
    assert(!pop(trips).contains((4, 5))) // edge exists in the line net but no trip used it
  }
}
