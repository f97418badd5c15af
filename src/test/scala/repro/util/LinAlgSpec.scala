package repro.util

import org.scalatest.funsuite.AnyFunSuite

class LinAlgSpec extends AnyFunSuite {

  /** The CSR form of a dense matrix, keeping its non-zero off-diagonals. */
  private def csr(a: Array[Array[Double]]): LinAlg.Csr = {
    val n = a.length
    val off = Array.tabulate(n)(i => (0 until n).filter(j => j != i && a(i)(j) != 0.0).toArray)
    LinAlg.Csr(Array.tabulate(n)(i => a(i)(i)), off.scanLeft(0)(_ + _.length), off.flatten,
      off.indices.toArray.flatMap(i => off(i).map(a(i)(_))))
  }

  private def identity(n: Int): Array[Array[Double]] = Array.tabulate(n, n)((i, j) => if (i == j) 1.0 else 0.0)

  /** A = MᵀM + I for a random M, which is SPD. */
  private def randomSpd(n: Int, rnd: scala.util.Random): Array[Array[Double]] = {
    val m = Array.fill(n, n)(rnd.nextDouble() - 0.5)
    Array.tabulate(n, n) { (i, j) =>
      (0 until n).map(t => m(t)(i) * m(t)(j)).sum + (if (i == j) 1.0 else 0.0)
    }
  }

  test("cg solves the identity system") {
    val b = Array(1.0, 2.0, 3.0)
    val x = LinAlg.cg(csr(identity(3)), b).x
    assert(b.zip(x).forall { case (bi, xi) => math.abs(bi - xi) < 1e-9 })
  }

  test("cg solves a diagonal system") {
    val a = Array(Array(2.0, 0, 0), Array(0.0, 4, 0), Array(0.0, 0, 8))
    val x = LinAlg.cg(csr(a), Array(2.0, 4.0, 8.0)).x
    assert(x.forall(v => math.abs(v - 1.0) < 1e-9))
  }

  for (k <- 0 until 5) {
    test(s"cg matches Gaussian elimination on a random SPD system (case $k)") {
      val rnd = new scala.util.Random(50 + k)
      val n = 6 + k
      val a = randomSpd(n, rnd)
      val b = Array.fill(n)(rnd.nextDouble())
      val cg = LinAlg.cg(csr(a), b)
      val ge = DenseSolve.solveDense(a, b)
      cg.x.zip(ge).foreach { case (x, y) => assert(math.abs(x - y) < 1e-7) }
      assert(cg.iterations >= 1 && cg.iterations <= n + 5)
      assert(cg.relResidual <= 1e-9)
    }
  }

  test("cg with b = 0 returns 0") {
    val res = LinAlg.cg(csr(identity(2)), Array(0.0, 0.0))
    assert(res.x.forall(_ == 0.0) && res.iterations == 0 && res.relResidual == 0.0)
  }

  test("cg throws when it reaches maxIter without converging") {
    val a = randomSpd(12, new scala.util.Random(7))
    val b = Array.tabulate(12)(i => 1.0 + i)
    val e = intercept[IllegalStateException](LinAlg.cg(csr(a), b, maxIter = 2))
    assert(e.getMessage.contains("did not converge in 2 iterations"))
  }

  test("cg throws on a matrix that is not positive definite") {
    // eigenvalues 3 and -1
    val indefinite = Array(Array(1.0, 2.0), Array(2.0, 1.0))
    intercept[IllegalArgumentException](LinAlg.cg(csr(indefinite), Array(1.0, -1.0)))
    intercept[IllegalArgumentException](LinAlg.cg(csr(Array(Array(0.0, 1.0), Array(1.0, 2.0))), Array(1.0, 1.0)))
  }

  test("solveDense handles permutation-needing pivots") {
    val a = Array(Array(0.0, 1.0), Array(1.0, 0.0))
    val x = DenseSolve.solveDense(a, Array(3.0, 5.0))
    assert(math.abs(x(0) - 5.0) < 1e-12 && math.abs(x(1) - 3.0) < 1e-12)
  }

  test("solveDense rejects singular systems") {
    val a = Array(Array(1.0, 1.0), Array(2.0, 2.0))
    intercept[IllegalArgumentException] {
      DenseSolve.solveDense(a, Array(1.0, 2.0))
    }
  }
}
