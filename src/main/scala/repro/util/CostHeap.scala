package repro.util

/** A 1-indexed binary heap of (cost, vertex) in parallel primitive arrays,
  * cheapest first, shared by the road-network search loop and the
  * region-graph search.
  *
  * Push and pop make the same comparisons as `mutable.PriorityQueue` under
  * reversed cost order, so equal-cost entries pop in the same order as from
  * that queue, and a search on this heap returns the paths the library
  * queue's search returned. The searches use lazy deletion: a vertex whose
  * cost falls is pushed again and its stale entries are skipped as they pop.
  * The arrays grow as needed from `capacity`.
  */
class CostHeap(capacity: Int) {
  private var heapCost = new Array[Double](capacity + 1)
  private var heapVertex = new Array[Int](capacity + 1)
  private var n = 0

  def size: Int = n

  /** Empties the heap. */
  def clear(): Unit = n = 0

  def minCost: Double = heapCost(1)
  def minVertex: Int = heapVertex(1)

  /** `PriorityQueue.addOne` under reversed cost order: the new entry rises
    * while it is strictly cheaper than its parent.
    */
  def push(c: Double, v: Int): Unit = {
    n += 1
    if (n == heapCost.length) {
      heapCost = java.util.Arrays.copyOf(heapCost, 2 * n)
      heapVertex = java.util.Arrays.copyOf(heapVertex, 2 * n)
    }
    var k = n
    while (k > 1 && c < heapCost(k >> 1)) {
      heapCost(k) = heapCost(k >> 1); heapVertex(k) = heapVertex(k >> 1)
      k >>= 1
    }
    heapCost(k) = c; heapVertex(k) = v
  }

  /** `PriorityQueue.dequeue` under reversed cost order: the last entry
    * moves to the root and sinks, taking the right child only when it is
    * strictly cheaper than the left, and stopping at a child that costs at
    * least as much as itself.
    */
  def pop(): Unit = {
    val c = heapCost(n); val v = heapVertex(n)
    n -= 1
    var k = 1
    var sinking = true
    while (sinking && 2 * k <= n) {
      var j = 2 * k
      if (j < n && heapCost(j + 1) < heapCost(j)) j += 1
      if (heapCost(j) >= c) sinking = false
      else {
        heapCost(k) = heapCost(j); heapVertex(k) = heapVertex(j)
        k = j
      }
    }
    heapCost(k) = c; heapVertex(k) = v
  }
}
