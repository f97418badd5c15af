package repro.util

import java.util.concurrent.atomic.AtomicInteger

import org.scalatest.funsuite.AnyFunSuite

class DriverPoolSpec extends AnyFunSuite {

  test("results come back in item order whatever the threads' finishing order") {
    val items = (0 until 200).toIndexedSeq
    val out = DriverPool.map(items, 4) { i => if (i % 7 == 0) Thread.sleep(1); i * i }
    assert(out === items.map(i => i * i))
  }

  test("every item runs once, on up to the given number of threads") {
    val seen = new java.util.concurrent.ConcurrentHashMap[Int, String]()
    DriverPool.map((0 until 100).toIndexedSeq, 3) { i => assert(seen.put(i, Thread.currentThread.getName) == null); i }
    assert(seen.size === 100)
    assert(seen.values.stream.distinct.count <= 3)
  }

  test("no items give no results, and a failure is rethrown") {
    assert(DriverPool.map(IndexedSeq.empty[Int], 4)(identity).isEmpty)
    val e = intercept[IllegalStateException](DriverPool.map((0 until 50).toIndexedSeq, 4) { i =>
      if (i == 17) throw new IllegalStateException("item 17") else i
    })
    assert(e.getMessage === "item 17")
  }

  test("after a failure no new item starts, and the lowest failing item's error is rethrown") {
    val started = new AtomicInteger(0)
    val e = intercept[IllegalStateException](DriverPool.map((0 until 10000).toIndexedSeq, 4) { i =>
      started.incrementAndGet()
      if (i == 20) { Thread.sleep(50); throw new IllegalStateException("item 20") }
      if (i == 30) throw new IllegalStateException("item 30")
      Thread.sleep(1); i
    })
    assert(e.getMessage === "item 20")
    assert(started.get < 100, s"${started.get} items started")
  }
}
