package repro.core

import repro.Fixtures
import repro.core.PreferenceTransfer._
import repro.roadnet.{CostType, Preference}
import repro.util.{DenseSolve, LinAlg}
import org.scalatest.funsuite.AnyFunSuite

class PreferenceTransferSpec extends AnyFunSuite {

  /** The fit's μ₁ and μ₂. */
  private val fit = L2RPipeline.Params()

  // ------------------------------------------------------------ reSim

  test("reSim of identical features is 1") {
    assert(reSim(5.0, Seq(13, 14), 5.0, Seq(13, 14)) === 1.0)
  }

  test("reSim is symmetric") {
    assert(reSim(2.0, Seq(13), 8.0, Seq(14, 15)) === reSim(8.0, Seq(14, 15), 2.0, Seq(13)))
  }

  test("reSim is in [0,1]") {
    val rnd = new scala.util.Random(4)
    for (_ <- 0 until 50) {
      val s = reSim(rnd.nextDouble() * 10 + 0.1, Seq(rnd.nextInt(60)),
                    rnd.nextDouble() * 10 + 0.1, Seq(rnd.nextInt(60)))
      assert(s >= 0.0 && s <= 1.0)
    }
  }

  test("reSim distance term is min/max") {
    // disjoint feature sets → Jaccard 0; distance ratio 2/8
    assert(math.abs(reSim(2.0, Seq(11), 8.0, Seq(22)) - 0.5 * 0.25) < 1e-12)
  }

  test("reSim Jaccard term on overlapping feature sets") {
    // same distance → ratio 1; J({11,12},{12,13}) = 1/3
    assert(math.abs(reSim(3.0, Seq(11, 12), 3.0, Seq(12, 13)) - 0.5 * (1 + 1.0 / 3)) < 1e-12)
  }

  test("fPairs builds the unordered Cartesian product") {
    // {1,2} × {3,4} → {13,14,23,24}
    assert(fPairs(Seq(1, 2), Seq(3, 4)) === Seq(13, 14, 23, 24))
    // unordered: {3} × {1} → min*10+max = 13
    assert(fPairs(Seq(3), Seq(1)) === Seq(13))
  }

  test("fPairs deduplicates") {
    assert(fPairs(Seq(1, 1), Seq(2)) === Seq(12))
  }

  // ------------------------------------------------------------ adjacency

  private def feat(i: Int, isT: Boolean, dis: Double, fp: Seq[Int]): REdgeFeat =
    REdgeFeat(i, i + 1000, dis, fp, if (isT) Some(Preference(CostType.TT, None)) else None)

  test("adjacency keeps only pairs with similarity ≥ amr") {
    val feats = IndexedSeq(
      feat(0, isT = true, 5.0, Seq(13)),
      feat(1, isT = true, 5.0, Seq(13)), // sim to 0: 1.0
      feat(2, isT = false, 50.0, Seq(46))) // dissimilar to both
    val entries = adjacency(feats, amr = 0.7)
    assert(entries.map(e => (e._1, e._2)).toSet === Set((0, 1)))
    assert(math.abs(entries.head._3 - 1.0) < 1e-12)
  }

  test("a lower amr admits more adjacency entries") {
    val rnd = new scala.util.Random(8)
    val feats = IndexedSeq.tabulate(12)(i =>
      feat(i, isT = i < 6, 1.0 + rnd.nextDouble() * 9, Seq(11 + rnd.nextInt(4), 33 + rnd.nextInt(3))))
    val hi = adjacency(feats, 0.8).size
    val lo = adjacency(feats, 0.4).size
    assert(lo >= hi)
  }

  private def bits(e: Seq[(Int, Int, Double)]): Seq[(Int, Int, Long)] =
    e.map { case (i, j, s) => (i, j, java.lang.Double.doubleToRawLongBits(s)) }

  test("adjacency equals a brute-force reSim sweep bit for bit, at every amr") {
    val rnd = new scala.util.Random(33)
    val codes = IndexedSeq.tabulate(90)(k => 11 + 7 * k)
    val base = IndexedSeq.tabulate(240) { k =>
      val dis = rnd.nextInt(10) match {
        case 0         => 0.0
        case 1 | 2 | 3 => Seq(1.0, 2.0, 2.5, 4.0)(rnd.nextInt(4)) // ties
        case _         => rnd.nextDouble() * 20
      }
      val fp = if (rnd.nextInt(8) == 0) Nil else Seq.fill(1 + rnd.nextInt(5))(codes(rnd.nextInt(codes.size)))
      feat(k, isT = k % 2 == 0, dis, fp)
    }
    // copies give similarity-1 pairs for amr = 1
    val feats = base ++ base.take(20).map(f => f.copy(ri = f.ri + 500))
    assert(feats.flatMap(_.fpairs).distinct.size > 64, "the codes must not fit one 64-bit word")
    for (amr <- Seq(0.3, 0.5, 0.7, 0.9, 1.0)) {
      val expect = for {
        i <- feats.indices; j <- i + 1 until feats.size
        s = reSim(feats(i).dis, feats(i).fpairs, feats(j).dis, feats(j).fpairs) if s >= amr
      } yield (i, j, s)
      assert(expect.nonEmpty)
      assert(bits(adjacency(feats, amr)) === bits(expect), s"amr $amr")
    }
  }

  test("pairsScanned counts the pairs inside the dis band, which the join scores") {
    val rnd = new scala.util.Random(41)
    val feats = IndexedSeq.tabulate(150) { k =>
      val dis = rnd.nextInt(6) match {
        case 0 => Seq(1.0, 3.0, 3.5)(rnd.nextInt(3)) // ties
        case _ => 0.5 + rnd.nextDouble() * 30
      }
      feat(k, isT = k % 3 == 0, dis, Seq(11 + rnd.nextInt(5), 22 + rnd.nextInt(5)))
    }
    for (amr <- Seq(0.6, 0.7, 0.9)) {
      // a pair is in band when min/max dis ≥ 2·amr − 1 (the slack of the join's bound included)
      val inBand = (for (i <- feats.indices; j <- i + 1 until feats.size) yield {
        val lo = math.min(feats(i).dis, feats(j).dis); val hi = math.max(feats(i).dis, feats(j).dis)
        lo / hi >= 2 * amr - 1 - 1e-9
      }).count(identity)
      val res = transfer(feats, amr, fit.mu1, fit.mu2)
      assert(res.pairsScanned === inBand.toLong, s"amr $amr")
      assert(res.pairsScanned < feats.size * (feats.size - 1) / 2 && res.pairsScanned >= res.adjacencyNnz, s"amr $amr")
    }
  }

  // ------------------------------------------------------------ transfer

  test("the Figure-7 shape: B-edges inherit the most similar T-edge's preference") {
    // re1 (T, ⟨DI,TP1⟩) very similar to re3 (B); re2 (T, ⟨TT,TP2⟩) very
    // similar to re4 (B); cross similarities below amr.
    val feats = IndexedSeq(
      REdgeFeat(1, 2, 4.0, Seq(11), Some(Preference(CostType.DI, Some(1)))),
      REdgeFeat(3, 4, 20.0, Seq(22), Some(Preference(CostType.TT, Some(2)))),
      REdgeFeat(5, 6, 4.2, Seq(11), None),
      REdgeFeat(7, 8, 21.0, Seq(22), None))
    val res = transfer(feats, amr = 0.7, mu1 = 1.0, mu2 = 0.01)
    val p3 = res.prefs((5, 6)).get
    val p4 = res.prefs((7, 8)).get
    assert(p3.master === CostType.DI && p3.slave === Some(1))
    assert(p4.master === CostType.TT && p4.slave === Some(2))
    assert(res.nullRate === 0.0)
  }

  test("T-edges keep their learned preferences after transfer") {
    val feats = IndexedSeq(
      REdgeFeat(1, 2, 4.0, Seq(11), Some(Preference(CostType.FC, None))),
      REdgeFeat(5, 6, 4.0, Seq(11), None))
    val res = transfer(feats, 0.7, fit.mu1, fit.mu2)
    val kept = res.prefs((1, 2)).get
    assert(kept.master === CostType.FC && kept.slave === None)
  }

  test("disconnected B-edges get a null preference") {
    val feats = IndexedSeq(
      REdgeFeat(1, 2, 1.0, Seq(11), Some(Preference(CostType.DI, None))),
      REdgeFeat(5, 6, 500.0, Seq(66), None)) // similarity ≈ 0
    val res = transfer(feats, 0.7, fit.mu1, fit.mu2)
    assert(res.prefs((5, 6)) === None)
    assert(res.nullRate === 1.0)
  }

  test("no-slave T-edges transfer no slave") {
    val feats = IndexedSeq(
      REdgeFeat(1, 2, 4.0, Seq(11), Some(Preference(CostType.TT, None))),
      REdgeFeat(5, 6, 4.0, Seq(11), None))
    val res = transfer(feats, 0.7, fit.mu1, fit.mu2)
    assert(res.prefs((5, 6)).get.slave === None)
  }

  test("yHat probabilities are higher for more similar edges") {
    val feats = IndexedSeq(
      REdgeFeat(1, 2, 4.0, Seq(11), Some(Preference(CostType.DI, None))),
      REdgeFeat(5, 6, 4.0, Seq(11), None),   // sim 1.0
      REdgeFeat(7, 8, 5.5, Seq(11), None))   // sim < 1
    val res = transfer(feats, 0.5, fit.mu1, fit.mu2)
    assert(res.yHat(1)(CostType.DI.id) > res.yHat(2)(CostType.DI.id))
  }

  test("decode: null on an all-zero row") {
    assert(decode(Array.fill(P)(0.0)) === None)
  }

  test("decode: master argmax and slave thresholding") {
    val row = Array(0.1, 0.8, 0.05, 0.0, 0.5, 0.0, 0.0, 0.0, 0.0)
    val p = decode(row).get
    assert(p.master === CostType.TT)
    assert(p.slave === Some(2)) // column 4 → rt 2, 0.5 ≥ 0.25·0.8
    val weakSlave = decode(Array(0.1, 0.8, 0.05, 0.0, 0.1, 0.0, 0.0, 0.0, 0.0)).get
    assert(weakSlave.slave === None)
  }

  // ------------------------------------------------------------ the solver

  /** A = S + μ₁(D − M) + μ₂I of Eq. 3, dense, from the adjacency entries. */
  private def denseA(feats: IndexedSeq[REdgeFeat], amr: Double, mu1: Double, mu2: Double): Array[Array[Double]] = {
    val n = feats.length
    val m = Array.fill(n, n)(0.0)
    adjacency(feats, amr).foreach { case (i, j, s) => m(i)(j) = s; m(j)(i) = s }
    Array.tabulate(n, n) { (i, j) =>
      val sDiag = if (feats(i).isT) 1.0 else 0.0
      val deg = m(i).sum
      val lij = (if (i == j) deg else 0.0) - m(i)(j)
      (if (i == j) sDiag + mu2 else 0.0) + mu1 * lij
    }
  }

  /** Column x of S·Y: 1 where a T-edge's learned preference has feature x. */
  private def rhs(feats: IndexedSeq[REdgeFeat], x: Int): Array[Double] =
    feats.map(f => if (f.label.exists(p => (x < 3 && p.master.id == x) || (x >= 3 && p.slave.contains(x - 2)))) 1.0 else 0.0).toArray

  test("transfer solves Eq.3: (S + μ1·L + μ2·I)·Ŷ = S·Y (dense-oracle check)") {
    val feats = IndexedSeq(
      REdgeFeat(1, 2, 4.0, Seq(11, 12), Some(Preference(CostType.DI, Some(1)))),
      REdgeFeat(3, 4, 5.0, Seq(11, 13), Some(Preference(CostType.TT, None))),
      REdgeFeat(5, 6, 4.4, Seq(11, 12), None),
      REdgeFeat(7, 8, 5.2, Seq(11, 13), None))
    val amr = 0.3; val mu1 = 1.0; val mu2 = 0.01
    val res = transfer(feats, amr, mu1, mu2)
    val a = denseA(feats, amr, mu1, mu2)
    for (x <- 0 until P) {
      val b = rhs(feats, x)
      if (b.exists(_ != 0)) {
        val expect = DenseSolve.solveDense(a, b)
        for (i <- feats.indices)
          assert(math.abs(res.yHat(i)(x) - expect(i)) < 1e-6,
            s"column $x row $i: cg=${res.yHat(i)(x)} dense=${expect(i)}")
      }
    }
  }

  test("transfer on 80 region edges matches the dense oracle, meets the Eq.3 residual and repeats bit for bit") {
    val rnd = new scala.util.Random(21)
    val linked = IndexedSeq.tabulate(70) { k =>
      val dis = 1.0 + rnd.nextInt(12) * 0.5 + rnd.nextDouble() * 0.2
      val fp = Seq(11 + rnd.nextInt(3), 22 + rnd.nextInt(3)).distinct
      val label = if (k % 3 == 2) None else {
        val master = CostType.byId(rnd.nextInt(3))
        Some(Preference(master, if (rnd.nextBoolean()) Some(1 + rnd.nextInt(6)) else None))
      }
      REdgeFeat(k, k + 1000, dis, fp, label)
    }
    // B-edges with no neighbours: their diagonal is μ₂ alone
    val isolated = IndexedSeq.tabulate(10)(k => REdgeFeat(2000 + k, 3000 + k, 1e4 * (k + 1), Seq(100 + k), None))
    val feats = linked ++ isolated
    val amr = 0.6; val mu1 = 1.0; val mu2 = 0.01
    assert(adjacency(feats, amr).forall { case (i, j, _) => i < linked.size && j < linked.size })
    val res = transfer(feats, amr, mu1, mu2)
    val a = denseA(feats, amr, mu1, mu2)
    for (x <- 0 until P) {
      val b = rhs(feats, x)
      val expect = DenseSolve.solveDense(a, b)
      for (i <- feats.indices)
        assert(math.abs(res.yHat(i)(x) - expect(i)) < 1e-8, s"column $x row $i: cg=${res.yHat(i)(x)} dense=${expect(i)}")
      val r = feats.indices.map(i => feats.indices.map(j => a(i)(j) * res.yHat(j)(x)).sum - b(i))
      val bNorm = math.sqrt(b.map(v => v * v).sum)
      if (bNorm > 0) assert(math.sqrt(r.map(v => v * v).sum) / bNorm <= 1e-10, s"column $x")
      assert(res.cgResidual(x) <= 1e-10 && (bNorm == 0) == (res.cgIterations(x) == 0))
    }
    val again = transfer(feats, amr, mu1, mu2)
    assert(res.yHat.flatten.map(java.lang.Double.doubleToRawLongBits).toSeq ===
      again.yHat.flatten.map(java.lang.Double.doubleToRawLongBits).toSeq)
  }

  test("the pooled column solves equal sequential CG solves bit for bit on the tiny scenario") {
    val model = Fixtures.tiny.model
    val feats = features(model.index, PreferenceLearning.byKey(model.learned))
    val res = transfer(feats, fit.amr, fit.mu1, fit.mu2)
    val a = systemMatrix(similarityGraph(feats, fit.amr)._1, feats, fit.mu1, fit.mu2)
    for (x <- 0 until P) {
      val seq = LinAlg.cg(a, yColumn(feats, x))
      assert(java.util.Arrays.equals(res.yHat.map(_(x)), seq.x), s"column $x")
      assert(res.cgIterations(x) === seq.iterations, s"column $x")
      assert(java.lang.Double.compare(res.cgResidual(x), seq.relResidual) === 0, s"column $x")
    }
    assert(res.yHat.indices.forall(i => java.util.Arrays.equals(res.yHat(i), model.transfer.yHat(i))))
  }

  test("a failed column solve still throws") {
    // with μ₂ = 0 the isolated B-edge's diagonal is 0, so every column's solve rejects A
    val feats = IndexedSeq(
      REdgeFeat(1, 2, 4.0, Seq(11, 12), Some(Preference(CostType.DI, Some(1)))),
      REdgeFeat(3, 4, 1e4, Seq(99), None))
    intercept[IllegalArgumentException](transfer(feats, 0.7, fit.mu1, 0.0))
  }
}
