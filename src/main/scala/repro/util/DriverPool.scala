package repro.util

import java.util.concurrent.{ExecutionException, Executors}
import java.util.concurrent.atomic.AtomicInteger

/** Runs independent work items on a fixed pool of driver threads, for
  * stages whose work is CPU-bound searches against one in-memory network:
  * nothing is serialised or scheduled, and each idle thread takes the next
  * item, so uneven items still balance.
  */
object DriverPool {

  /** `f` of every item, in item order, computed on up to `threads` threads.
    * Rethrows the first failure of `f`.
    */
  def map[A, B](items: IndexedSeq[A], threads: Int)(f: A => B): IndexedSeq[B] = {
    val out = new Array[Any](items.size)
    val next = new AtomicInteger(0)
    val drain: Runnable = () => {
      var i = next.getAndIncrement()
      while (i < items.size) { out(i) = f(items(i)); i = next.getAndIncrement() }
    }
    val n = math.max(1, math.min(threads, items.size))
    val pool = Executors.newFixedThreadPool(n)
    try Seq.fill(n)(pool.submit(drain)).foreach { w =>
      try w.get() catch { case e: ExecutionException => throw e.getCause }
    } finally pool.shutdown()
    out.toIndexedSeq.asInstanceOf[IndexedSeq[B]]
  }
}
