package repro.roadnet

import org.scalatest.funsuite.AnyFunSuite

/** [[Preference.code]], the one integer form of a [[Preference]]. */
class PreferenceSpec extends AnyFunSuite {

  test("Preference.all holds the 21 preferences, and fromCode inverts code on each") {
    val expect = for (c <- CostType.all; s <- None +: (1 to 6).map(Some(_))) yield Preference(c, s)
    assert(Preference.all.toSet === expect.toSet)
    assert(Preference.all.distinct.size === 21)
    Preference.all.foreach(p => assert(Preference.fromCode(Preference.code(p)) === p))
  }

  test("codes ascend with (masterId, slaveRt), and Preference.all is in code order") {
    // learning's score table and the router's vote tie rule index by code
    val byIds = Preference.all.sortBy(p => (p.masterId, p.slaveRt))
    assert(byIds.map(Preference.code) === (0 until 21))
    assert(Preference.all.map(Preference.code) === (0 until 21))
  }

  test("code throws for slave road types 0 and 7") {
    for (c <- CostType.all; rt <- Seq(0, 7))
      intercept[IllegalArgumentException](Preference.code(Preference(c, Some(rt))))
  }
}
