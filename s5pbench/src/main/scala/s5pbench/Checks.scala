package s5pbench

import repro.core.Edge

/** The benchmark's own view of a stream, computed without the program:
  * sorted distinct vertex ids, dense endpoint indexes and degrees.
  */
final class OwnGraph(val src: Array[Long], val dst: Array[Long]) {
  val numEdges: Int = src.length
  val ids: Array[Long] = {
    val all = new Array[Long](2 * numEdges)
    System.arraycopy(src, 0, all, 0, numEdges)
    System.arraycopy(dst, 0, all, numEdges, numEdges)
    java.util.Arrays.sort(all)
    var n = 0
    var i = 0
    while (i < all.length) {
      if (n == 0 || all(n - 1) != all(i)) { all(n) = all(i); n += 1 }
      i += 1
    }
    java.util.Arrays.copyOf(all, n)
  }
  def numVertices: Int = ids.length
  val srcIdx: Array[Int] = src.map(index)
  val dstIdx: Array[Int] = dst.map(index)
  val degree: Array[Int] = {
    val d = new Array[Int](numVertices)
    var i = 0
    while (i < numEdges) { d(srcIdx(i)) += 1; d(dstIdx(i)) += 1; i += 1 }
    d
  }
  private def index(v: Long): Int = java.util.Arrays.binarySearch(ids, v)
}

object OwnGraph {
  def apply(stream: IndexedSeq[Edge]): OwnGraph =
    new OwnGraph(stream.map(_.src).toArray, stream.map(_.dst).toArray)
}

/** Output checks, each computed apart from the program. Every check is one
  * counted operation; a failed check is one failed operation.
  */
final class Checks {
  private val failedNames = scala.collection.mutable.ArrayBuffer.empty[String]
  private var count = 0

  def attempted: Int = count
  def failed: Seq[String] = failedNames.toSeq

  def check(name: String)(ok: => Boolean): Boolean = {
    count += 1
    val passed = try ok catch { case _: Exception => false }
    if (!passed) failedNames += name
    passed
  }

  /** The four checks on one assignment of `g` (see `Checks.assignment`). */
  def assignment(g: OwnGraph, pids: Array[Int], k: Int, tau: Double,
                 reportedRf: Double): Unit =
    Checks.assignment(g, pids, k, tau, reportedRf).foreach { case (name, ok) =>
      check(name)(ok)
    }
}

object Checks {

  /** Partition cap L = ⌈τ·|E|/k⌉, as the paper defines it. */
  def cap(numEdges: Int, k: Int, tau: Double): Long =
    math.ceil(tau * numEdges / k).toLong

  /** Replication factor Σ_v |P(v)| / |V| from (src, dst, pid), by sorting
    * the (vertex, pid) pairs and counting the distinct ones.
    */
  def replicationFactor(g: OwnGraph, pids: Array[Int], k: Int): Double = {
    val keys = new Array[Long](2 * g.numEdges)
    var i = 0
    while (i < g.numEdges) {
      keys(2 * i) = g.srcIdx(i).toLong * k + pids(i)
      keys(2 * i + 1) = g.dstIdx(i).toLong * k + pids(i)
      i += 1
    }
    java.util.Arrays.sort(keys)
    var distinct = 0L
    i = 0
    while (i < keys.length) {
      if (i == 0 || keys(i) != keys(i - 1)) distinct += 1
      i += 1
    }
    distinct.toDouble / g.numVertices
  }

  /** The replication factor no assignment under cap L can go below: a
    * vertex of degree d needs at least ⌈d/L⌉ partitions.
    */
  def rfLowerBound(g: OwnGraph, capacity: Long): Double = {
    var s = 0L
    g.degree.foreach(d => s += (d + capacity - 1) / capacity)
    s.toDouble / g.numVertices
  }

  /** (check name, passed) for one assignment: every edge has exactly one pid
    * in [0, k); no partition exceeds the cap; the reported RF equals the
    * benchmark's own; the RF is not below the degree bound.
    */
  def assignment(g: OwnGraph, pids: Array[Int], k: Int, tau: Double,
                 reportedRf: Double): Seq[(String, Boolean)] = {
    val onePid = pids.length == g.numEdges && pids.forall(p => p >= 0 && p < k)
    val capacity = cap(g.numEdges, k, tau)
    val underCap = onePid && {
      val load = new Array[Long](k)
      pids.foreach(p => load(p) += 1)
      load.forall(_ <= capacity)
    }
    val rf = if (onePid) replicationFactor(g, pids, k) else Double.NaN
    Seq(
      "assign.one_pid_each" -> onePid,
      "assign.under_cap" -> underCap,
      "rf.equals_reported" -> (onePid && rf == reportedRf),
      "rf.above_degree_bound" -> (onePid && rf >= rfLowerBound(g, capacity)),
    )
  }

  /** Feeds deliberately broken assignments to the checks. Returns the names
    * of the broken cases the checks did not report; empty when every
    * breakage was caught and the valid assignment passed.
    */
  def selfTest(): Seq[String] = {
    val k = 8
    val tau = 1.05
    val g = OwnGraph(repro.gen.GraphGen.social(400, 4000, 1L))
    val valid = Array.tabulate(g.numEdges)(_ % k)
    val rf = replicationFactor(g, valid, k)
    def caught(broken: Array[Int], reported: Double, expect: String): Boolean =
      assignment(g, broken, k, tau, reported).exists { case (n, ok) => n == expect && !ok }
    val cases = Seq(
      "valid assignment passes" ->
        assignment(g, valid, k, tau, rf).forall(_._2),
      "dropped edge" ->
        caught(valid.dropRight(1), rf, "assign.one_pid_each"),
      "out-of-range pid" ->
        caught(valid.updated(0, k), rf, "assign.one_pid_each"),
      "over-cap partition" ->
        caught(valid.map(p => if (p == 1) 0 else p), rf, "assign.under_cap"),
      "wrong RF" ->
        caught(valid, rf + 1e-9, "rf.equals_reported"),
    )
    cases.collect { case (name, false) => name }
  }
}
