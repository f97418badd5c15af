package repro.core

import org.apache.spark.sql.SparkSession
import repro.roadnet.{CostType, Preference}
import repro.util.{DriverPool, LinAlg}

import scala.collection.mutable

/** Step 2 of Section V: transfer routing preferences from T-edges to
  * similar B-edges by graph-based transduction.
  *
  * A region edge re is described by re.dis (centroid distance of its two
  * regions) and re.𝔽 (Cartesian product of the two regions' top-k road-type
  * sets). Similarity
  *
  *   reSim(re_i, re_j) = ½ · ( min(dis)/max(dis) + J(𝔽_i, 𝔽_j) )
  *
  * (normalised to [0,1]; the paper sweeps amr over 0.5–0.9 which implies a
  * normalised score — see DESIGN.md). The adjacency matrix M keeps entries
  * ≥ amr; the transferred labels Ŷ solve (S + μ₁L + μ₂I)Ŷ·ₓ = SY·ₓ with
  * L = D − M (Eq. 3), one preconditioned conjugate-gradient solve per feature
  * column.
  *
  * Both steps run on the driver (n = #region edges is small): a band-pruned
  * bitmask similarity join (the size filter of Bayardo, Ma & Srikant, WWW
  * 2007) and a preconditioned CG over primitive CSR arrays, its columns
  * solved on driver threads.
  */
object PreferenceTransfer {

  /** Feature description of one region edge: `dis` is re.dis, `fpairs` is
    * re.𝔽 encoded as unordered road-type pairs (min*10+max), and `label`
    * is a T-edge's learned preference. An edge without a label is a B-edge,
    * a row of Y that starts at zero.
    */
  final case class REdgeFeat(ri: Int, rj: Int, dis: Double, fpairs: Seq[Int], label: Option[Preference]) {
    def key: (Int, Int) = if (ri < rj) (ri, rj) else (rj, ri)
    def isT: Boolean = label.isDefined
    /** The label's master id, or -1; kept for l2rbench until the benchmark PR moves it to the final API. */
    def masterId: Int = label.fold(-1)(_.masterId)
    /** The label's slave road type, or -1; kept for l2rbench until the benchmark PR moves it to the final API. */
    def slaveRt: Int = label.fold(-1)(_.slaveRt)
  }

  /** Encode the Cartesian product of two top-k road-type sets. */
  def fPairs(rtsA: Seq[Int], rtsB: Seq[Int]): Seq[Int] =
    (for (a <- rtsA; b <- rtsB) yield { val lo = math.min(a, b); val hi = math.max(a, b); lo * 10 + hi })
      .distinct.sorted

  /** Region-edge similarity, in [0, 1]. */
  def reSim(disA: Double, fA: Seq[Int], disB: Double, fB: Seq[Int]): Double = {
    val sa = fA.toSet; val sb = fB.toSet
    score(disRatio(disA, disB), (sa intersect sb).size, (sa union sb).size)
  }

  private def disRatio(disA: Double, disB: Double): Double = {
    val lo = math.min(disA, disB); val hi = math.max(disA, disB)
    if (hi <= 0) 1.0 else lo / hi
  }

  private def score(dSim: Double, inter: Int, union: Int): Double =
    0.5 * (dSim + (if (union == 0) 0.0 else inter.toDouble / union))

  /** Number of feature columns: 3 master (DI/TT/FC) + 6 slave road types. */
  val P: Int = 9

  /** The features of preference p, as its Y columns: column c.id (0..2) of
    * its master cost type c and, with a slave road type rt (1..6), column
    * rt + 2. Transfer's Y and Fig 9's Jaccard accuracy read them.
    */
  def columns(p: Preference): Set[Int] = Set(p.master.id) ++ p.slave.map(_ + 2)

  /** The slave road type of Y column x ≥ 3, as [[columns]] numbers it. */
  private def slaveOf(x: Int): Int = x - 2

  /** A slave column is decoded only when its score is at least this
    * fraction of the master column's.
    */
  private val SlaveFraction = 0.25

  final case class TransferResult(
      /** region-edge key → transferred preference (None = null preference) */
      prefs: Map[(Int, Int), Option[Preference]],
      /** raw Ŷ rows, aligned with the input order, for held-out evaluation */
      yHat: Array[Array[Double]],
      nullRate: Double,
      adjacencyNnz: Long,
      solveMillis: Long,
      /** per feature column: CG iterations and true relative residual of its solve */
      cgIterations: IndexedSeq[Int],
      cgResidual: IndexedSeq[Double],
      /** the edge pairs the band-pruned join scored (reSim computed), of n(n − 1)/2 */
      pairsScanned: Long)

  /** [[adjacency]]; kept for l2rbench until the benchmark PR; `spark` is unused. */
  def adjacency(spark: SparkSession, feats: IndexedSeq[REdgeFeat], amr: Double): Seq[(Int, Int, Double)] =
    adjacency(feats, amr)

  /** Pairwise similarities ≥ amr over all region edges, as (i, j, s) with
    * i < j, sorted by (i, j), from the driver-side join of [[transfer]].
    */
  def adjacency(feats: IndexedSeq[REdgeFeat], amr: Double): Seq[(Int, Int, Double)] = {
    val (m, _) = similarityGraph(feats, amr)
    for (i <- feats.indices; k <- (m.rowPtr(i) until m.rowPtr(i + 1)).filter(m.cols(_) > i).sortBy(m.cols(_)))
      yield (i, m.cols(k), m.vals(k))
  }

  /** M as a symmetric CSR with a zero diagonal. Edges are scanned in dis
    * order: reSim ≥ amr needs lo/hi dis ≥ 2·amr − 1, as the Jaccard term is
    * at most 1, and lo/hi only falls as hi grows, so each scan stops at the
    * first pair below that bound (less a slack for rounding; a negative or
    * NaN dis turns the stop off). 𝔽 is a bitmask over the distinct pair
    * codes, `words` longs per edge, and scores use reSim's arithmetic, so
    * they are bit-identical to it. Returns M and the number of pairs scored.
    */
  private[core] def similarityGraph(feats: IndexedSeq[REdgeFeat], amr: Double): (LinAlg.Csr, Long) = {
    val n = feats.length
    val bit = feats.flatMap(_.fpairs).distinct.zipWithIndex.toMap
    val words = (bit.size + 63) / 64
    val mask = new Array[Long](n * words)
    for (i <- 0 until n; c <- feats(i).fpairs) mask(i * words + bit(c) / 64) |= 1L << (bit(c) % 64)
    val dis = feats.map(_.dis).toArray
    val order = (0 until n).sortBy(dis)(Ordering.Double.TotalOrdering).toArray
    val bound = if (dis.forall(_ >= 0)) 2 * amr - 1 - 1e-9 else Double.NegativeInfinity
    val nbr = Array.fill(n)(mutable.ArrayBuilder.make[Int])
    val sim = Array.fill(n)(mutable.ArrayBuilder.make[Double])
    var scanned = 0L
    for (p <- 0 until n) {
      val a = order(p)
      var q = p + 1
      while (q < n) {
        val b = order(q)
        val dSim = disRatio(dis(a), dis(b))
        if (dSim < bound) q = n // every later edge is farther
        else {
          var inter = 0; var union = 0; var w = 0
          while (w < words) {
            val x = mask(a * words + w); val y = mask(b * words + w)
            inter += java.lang.Long.bitCount(x & y); union += java.lang.Long.bitCount(x | y)
            w += 1
          }
          val s = score(dSim, inter, union)
          if (s >= amr) { nbr(a) += b; sim(a) += s; nbr(b) += a; sim(b) += s }
          scanned += 1; q += 1
        }
      }
    }
    val rows = nbr.map(_.result())
    (LinAlg.Csr(new Array[Double](n), rows.scanLeft(0)(_ + _.length), rows.flatten, sim.flatMap(_.result())), scanned)
  }

  /** Decode one Ŷ row into a preference: master = argmax over cost columns
    * (null when the row is ~0, i.e. the edge is disconnected from every
    * labelled edge); slave = argmax over road-type columns, kept only when
    * its score is at least [[SlaveFraction]] of the master score.
    */
  def decode(row: Array[Double]): Option[Preference] = {
    val master = CostType.all.maxBy(c => row(c.id))
    val slaveCol = (CostType.all.size until P).maxBy(row(_))
    val slave = if (row(slaveCol) >= SlaveFraction * row(master.id)) Some(slaveOf(slaveCol)) else None
    if (row(master.id) < 1e-8) None else Some(Preference(master, slave))
  }

  /** A = S + μ₁(D − M) + μ₂I of Eq. 3, on M's sparsity pattern. */
  private[core] def systemMatrix(m: LinAlg.Csr, feats: IndexedSeq[REdgeFeat], mu1: Double, mu2: Double): LinAlg.Csr = {
    val diag = Array.tabulate(feats.length) { i =>
      val deg = (m.rowPtr(i) until m.rowPtr(i + 1)).foldLeft(0.0)(_ + m.vals(_))
      (if (feats(i).isT) 1.0 else 0.0) + mu1 * deg + mu2
    }
    LinAlg.Csr(diag, m.rowPtr, m.cols, m.vals.map(s => -mu1 * s))
  }

  /** Column x of S·Y: Y's T-edge rows, as S[i,i] = 1 for T-edges. */
  private[core] def yColumn(feats: IndexedSeq[REdgeFeat], x: Int): Array[Double] =
    feats.map(f => if (f.label.exists(columns(_).contains(x))) 1.0 else 0.0).toArray

  /** [[transfer]]; kept for l2rbench until the benchmark PR; `spark` is unused. */
  def transfer(spark: SparkSession, feats: IndexedSeq[REdgeFeat],
               amr: Double, mu1: Double, mu2: Double): TransferResult = transfer(feats, amr, mu1, mu2)

  /** Run the transduction. T-edge rows of Y are one-hot in their learned
    * features; B-edge rows start at zero (unlabelled). Runs on the driver:
    * the nine column solves are independent; the first runs on the calling
    * thread and the other eight on the [[DriverPool]], each with the
    * arithmetic of a solve on its own. Throws when a CG solve fails (the
    * lowest failing column's error).
    */
  def transfer(feats: IndexedSeq[REdgeFeat], amr: Double, mu1: Double, mu2: Double): TransferResult = {
    val n = feats.length
    val (m, scanned) = similarityGraph(feats, amr)
    val t0 = System.nanoTime()
    val a = systemMatrix(m, feats, mu1, mu2)
    // column 0 on this thread, then the other eight on the pool: in a fresh
    // JVM, four threads that start the solver cold were slower than one after
    // another, and on four threads nine columns take three rounds either way
    val first = LinAlg.cg(a, yColumn(feats, 0))
    val solves = first +: DriverPool.map(1 until P, DriverPool.Threads)(x => LinAlg.cg(a, yColumn(feats, x)))
    val yHat = Array.tabulate(n, P)((i, x) => solves(x).x(i))
    val solveMillis = (System.nanoTime() - t0) / 1000000

    val prefs = feats.zipWithIndex.map { case (f, i) => f.key -> f.label.orElse(decode(yHat(i))) }.toMap
    val bRows = feats.zipWithIndex.filterNot(_._1.isT)
    val nulls = bRows.count { case (f, i) => decode(yHat(i)).isEmpty }
    val nullRate = if (bRows.isEmpty) 0.0 else nulls.toDouble / bRows.size
    TransferResult(prefs, yHat, nullRate, m.cols.length / 2L, solveMillis,
      solves.map(_.iterations), solves.map(_.relResidual), scanned)
  }

  /** Build region-edge features from a region graph's edge rows, centroids
    * and top road types, and the learned T-edge preferences.
    */
  def features(index: RegionGraphIndex,
               learned: Map[(Int, Int), PreferenceLearning.LearnedPref]): IndexedSeq[REdgeFeat] =
    // T-edges first (the paper's convention for S)
    (0 until index.nEdges).sortBy(e => (!index.edgeIsT(e), index.edgeRi(e), index.edgeRj(e))).map { e =>
      val a = index.edgeRi(e); val b = index.edgeRj(e)
      val dis = math.hypot(index.cx(a) - index.cx(b), index.cy(a) - index.cy(b))
      REdgeFeat(a, b, dis, fPairs(index.topRts(a), index.topRts(b)),
        if (index.edgeIsT(e)) learned.get(index.edgeKey(e)).map(_.pref) else None)
    }
}
