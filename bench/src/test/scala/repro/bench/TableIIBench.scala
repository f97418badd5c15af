package repro.bench

import repro.eval.Tables
import org.scalatest.funsuite.AnyFunSuite

/** Table II — statistics (distance distribution) of the trajectory sets.
  *
  * Paper (D1, Denmark): (0,10] 91.6%, (10,50] 7.6%, (50,100] 0.5%, (100,500] 0.3%
  * Paper (D2, Chengdu): (0,2] 15.8%, (2,5] 56.9%, (5,10] 23.5%, (10,35] 3.8%
  */
class TableIIBench extends AnyFunSuite {

  test("Table II: D1-lite distance distribution is short-trip dominated") {
    val s = BenchScenarios.d1
    val (hist, txt) = Tables.tableII(s.net, s.train ++ s.test, s.bounds, s.name)
    println(txt)
    println("Paper D1:        91.6%        7.6%        0.5%         0.3%")
    assert(hist.map(_.n).sum > 0)
    // shape: the shortest bucket dominates, monotone decreasing tail
    assert(hist.head.pct > 50.0, s"shortest bucket should dominate: ${hist.map(_.pct)}")
    assert(hist.head.pct > hist.last.pct)
    assert(hist(1).pct > hist(2).pct || hist(2).pct < 5.0)
  }

  test("Table II: D2-lite distance distribution peaks at mid-length trips") {
    val s = BenchScenarios.d2
    val (hist, txt) = Tables.tableII(s.net, s.train ++ s.test, s.bounds, s.name)
    println(txt)
    println("Paper D2:        15.8%       56.9%       23.5%         3.8%")
    assert(hist.map(_.n).sum > 0)
    // shape: interior buckets hold the bulk; the extreme tail is small
    assert(hist(1).pct + hist(2).pct > hist.head.pct, s"mid buckets dominate: ${hist.map(_.pct)}")
    assert(hist.last.pct < 25.0)
  }
}
