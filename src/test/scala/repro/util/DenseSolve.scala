package repro.util

/** The dense oracle of the CG solver ([[LinAlg.cg]]). */
object DenseSolve {

  /** Dense solve by Gaussian elimination with partial pivoting (mutates
    * copies only).
    */
  def solveDense(a0: Array[Array[Double]], b0: Array[Double]): Array[Double] = {
    val n = b0.length
    val a = a0.map(_.clone())
    val b = b0.clone()
    for (col <- 0 until n) {
      var piv = col
      for (r <- col + 1 until n) if (math.abs(a(r)(col)) > math.abs(a(piv)(col))) piv = r
      val tmp = a(col); a(col) = a(piv); a(piv) = tmp
      val tb = b(col); b(col) = b(piv); b(piv) = tb
      require(math.abs(a(col)(col)) > 1e-12, s"singular matrix at column $col")
      for (r <- col + 1 until n) {
        val f = a(r)(col) / a(col)(col)
        if (f != 0.0) {
          for (c <- col until n) a(r)(c) -= f * a(col)(c)
          b(r) -= f * b(col)
        }
      }
    }
    val x = new Array[Double](n)
    for (r <- (n - 1) to 0 by -1) {
      var s = b(r)
      for (c <- r + 1 until n) s -= a(r)(c) * x(c)
      x(r) = s / a(r)(r)
    }
    x
  }
}
