package repro.util

/** Small dependency-free linear algebra: a Jacobi-preconditioned
  * conjugate-gradient solver over a CSR matrix, for the sparse SPD
  * transduction system (S + μ₁L + μ₂I)x = b.
  */
object LinAlg {

  /** A square sparse matrix with its diagonal held apart: A(i, i) = diag(i),
    * and A(i, cols(k)) = vals(k) for k in rowPtr(i) until rowPtr(i + 1).
    */
  final case class Csr(diag: Array[Double], rowPtr: Array[Int], cols: Array[Int], vals: Array[Double]) {
    def n: Int = diag.length

    /** out = A·x, in place. */
    def multiply(x: Array[Double], out: Array[Double]): Unit = {
      var i = 0
      while (i < n) {
        var s = diag(i) * x(i)
        var k = rowPtr(i)
        while (k < rowPtr(i + 1)) { s += vals(k) * x(cols(k)); k += 1 }
        out(i) = s
        i += 1
      }
    }
  }

  /** A solution, the iterations it took and its true relative residual
    * ‖b − Ax‖/‖b‖ (0 when b = 0).
    */
  final case class CgResult(x: Array[Double], iterations: Int, relResidual: Double)

  /** The relative residual ‖r‖/‖b‖ at which [[cg]] stops. */
  private val Tol = 1e-10

  /** Solve A x = b by Jacobi-preconditioned conjugate gradient until
    * ‖r‖/‖b‖ ≤ 1e-10. A must be symmetric positive definite: the solve
    * throws when a diagonal entry or pᵀAp is not positive, and when it
    * reaches `maxIter` iterations without meeting that tolerance.
    */
  def cg(a: Csr, b: Array[Double], maxIter: Int = 2000): CgResult = {
    val n = a.n
    val invDiag = a.diag.map { d =>
      if (!(d > 0)) throw new IllegalArgumentException(s"CG: diagonal entry $d <= 0, A is not positive definite")
      1.0 / d
    }
    val x = new Array[Double](n)
    val r = b.clone()
    val p = Array.tabulate(n)(i => r(i) * invDiag(i))
    val ap = new Array[Double](n)
    val b2 = dot(b, b)
    if (b2 == 0) return CgResult(x, 0, 0.0)
    var rr = b2
    var rz = dot(r, p)
    var it = 0
    while (!(rr <= Tol * Tol * b2)) { // a NaN residual keeps iterating into a loud failure
      if (it == maxIter)
        throw new IllegalStateException(
          f"CG did not converge in $maxIter iterations: relative residual ${math.sqrt(rr / b2)}%.3e > $Tol%.1e")
      a.multiply(p, ap)
      val pap = dot(p, ap)
      if (!(pap > 0))
        throw new IllegalArgumentException(s"CG: pᵀAp = $pap <= 0 at iteration $it, A is not positive definite")
      val alpha = rz / pap
      var rz2 = 0.0
      rr = 0.0
      var i = 0
      while (i < n) {
        x(i) += alpha * p(i)
        r(i) -= alpha * ap(i)
        rr += r(i) * r(i)
        rz2 += r(i) * r(i) * invDiag(i)
        i += 1
      }
      val beta = rz2 / rz
      i = 0
      while (i < n) { p(i) = r(i) * invDiag(i) + beta * p(i); i += 1 }
      rz = rz2
      it += 1
    }
    a.multiply(x, ap)
    var i = 0
    while (i < n) { ap(i) = b(i) - ap(i); i += 1 }
    CgResult(x, it, math.sqrt(dot(ap, ap) / b2))
  }

  private def dot(u: Array[Double], v: Array[Double]): Double = {
    var s = 0.0
    var i = 0
    while (i < u.length) { s += u(i) * v(i); i += 1 }
    s
  }
}
