package repro.util

import org.scalatest.funsuite.AnyFunSuite

class GeoSpec extends AnyFunSuite {

  test("hull of a unit square is the square") {
    val sq = Seq((0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0), (0.5, 0.5))
    val h = Geo.convexHull(sq)
    assert(h.toSet === Set((0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)))
  }

  test("area of the unit square is 1") {
    val sq = Seq((0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0))
    assert(math.abs(Geo.polygonArea(Geo.convexHull(sq)) - 1.0) < 1e-12)
  }

  test("area of a triangle") {
    val t = Seq((0.0, 0.0), (4.0, 0.0), (0.0, 3.0))
    assert(math.abs(Geo.polygonArea(Geo.convexHull(t)) - 6.0) < 1e-12)
  }

  test("collinear points have zero area") {
    assert(Geo.polygonArea(Geo.convexHull(Seq((0.0, 0.0), (1.0, 1.0), (2.0, 2.0)))) === 0.0)
  }

  test("degenerate inputs: empty, single, pair") {
    assert(Geo.convexHull(Nil).isEmpty)
    assert(Geo.polygonArea(Geo.convexHull(Seq((1.0, 2.0)))) === 0.0)
    assert(Geo.diameter(Seq((1.0, 2.0))) === 0.0)
  }

  test("diameter of the unit square is √2") {
    val sq = Seq((0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0))
    assert(math.abs(Geo.diameter(sq) - math.sqrt(2)) < 1e-12)
  }

  test("hull is invariant to point order") {
    val pts = Seq((0.0, 0.0), (2.0, 1.0), (1.0, 3.0), (0.5, 0.5), (2.0, 3.0))
    assert(Geo.convexHull(pts).toSet === Geo.convexHull(pts.reverse).toSet)
  }

  test("interior points never appear on the hull") {
    val rnd = new scala.util.Random(2)
    val pts = Seq.fill(100)((rnd.nextDouble() * 10, rnd.nextDouble() * 10))
    val h = Geo.convexHull(pts).toSet
    val inner = (5.0, 5.0)
    assert(!Geo.convexHull(pts :+ inner).toSet.contains(inner) || h.contains(inner))
  }
}
