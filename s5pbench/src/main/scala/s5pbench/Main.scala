package s5pbench

import java.lang.management.ManagementFactory
import java.nio.file.{Path, Paths}

import scala.collection.immutable.ArraySeq

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.core._
import repro.gen.GraphGen
import repro.harness.Tables
import repro.metrics.Metrics
import repro.partitioners.{CLUGP, EdgePartitioner, HDRF, PartitionContext}

/** One benchmark run: set-up, then `S5P.partition` calls for the given
  * number of seconds, with every output checked. `--trace 1` makes the
  * separate traced run that gives the per-layer split (the PartitionJob
  * Spark path included) instead of the end-to-end metrics.
  *
  * Usage: Main --workload <name> [--seed n] [--seconds s] [--trace 0|1]
  *             [--out dir]
  */
object Main {
  val Tau = 1.05
  val WarmupCalls = 2

  def main(argv: Array[String]): Unit = {
    val opts = argv.grouped(2).collect { case Array(k, v) => k.stripPrefix("--") -> v }.toMap
    val w = Workloads.byName(opts.getOrElse("workload", "social-k256"))
    val seed = opts.get("seed").map(_.toLong).getOrElse(w.registrySeed)
    val seconds = opts.getOrElse("seconds", "30").toDouble
    val traced = opts.getOrElse("trace", "0") == "1"
    val out = Paths.get(opts.getOrElse("out", "s5pbench/out"))
    val result = new Run(w, seed, seconds, traced, out).run()
    println(result)
  }
}

/** Counters read around a run or a call. */
object Probes {
  val MiB: Double = 1024.0 * 1024.0
  private val threads =
    ManagementFactory.getThreadMXBean.asInstanceOf[com.sun.management.ThreadMXBean]

  def allocatedBytes(): Long = threads.getCurrentThreadAllocatedBytes

  def gcMs(): Long = {
    var s = 0L
    ManagementFactory.getGarbageCollectorMXBeans.forEach(b => s += math.max(0L, b.getCollectionTime))
    s
  }

  /** Host steal time in seconds, read from the aggregate cpu line of
    * /proc/stat (USER_HZ ticks); 0 where the file or field is missing.
    */
  def stealS(): Double =
    try {
      val src = scala.io.Source.fromFile("/proc/stat")
      try {
        val f = src.getLines().next().trim.split("\\s+")
        if (f.length > 8) f(8).toDouble / 100.0 else 0.0
      } finally src.close()
    } catch { case _: Exception => 0.0 }

  def median(xs: Seq[Double]): Double = {
    val s = xs.sorted
    val n = s.length
    if (n == 0) Double.NaN else if (n % 2 == 1) s(n / 2) else (s(n / 2 - 1) + s(n / 2)) / 2
  }
}

/** What one S5P call returned and cost on the calling thread. */
final case class Call(pids: Array[Int], seconds: Double, allocBytes: Long)

/** One traced S5P call, composed from the four phases the way
  * `S5P.partition` composes them.
  */
final case class Phases(pids: Array[Int], clustering: Clustering, input: GameInput,
                        game: StackelbergGame.Result, stateBytes: Long,
                        allocBytes: Map[String, Long])

final class Run(w: Workload, seed: Long, seconds: Double, traced: Boolean, out: Path) {
  import Main.{Tau, WarmupCalls}
  import Probes._

  private val tracer = new Tracer
  private val checks = new Checks
  private val s5p = S5P(tau = Tau)
  private val metrics = scala.collection.mutable.LinkedHashMap.empty[String, (Double, String)]

  /** A span when tracing; the bare call otherwise. */
  private def span[A](name: String)(body: => A): A =
    if (traced) tracer.span(name)(body) else body

  private def metric(name: String, value: Double, unit: String): Unit =
    metrics(name) = (value, unit)

  private def timeCall(p: EdgePartitioner, stream: IndexedSeq[Edge], ctx: PartitionContext): Call = {
    val a0 = allocatedBytes()
    val t0 = System.nanoTime()
    val r = p.partition(stream, ctx)
    val t1 = System.nanoTime()
    Call(r.pids, (t1 - t0) / 1e9, allocatedBytes() - a0)
  }

  /** Repeats `round` until the measured window has passed, at least
    * `minRounds` times. Every run so attempts whole rounds of the same
    * operations.
    */
  private def rounds[A](minRounds: Int)(round: => A): Seq[A] = {
    val deadline = System.nanoTime() + (seconds * 1e9).toLong
    val done = scala.collection.mutable.ArrayBuffer.empty[A]
    while (done.length < minRounds || System.nanoTime() < deadline) done += round
    done.toSeq
  }

  def run(): String = {
    val jvmStartMs = ManagementFactory.getRuntimeMXBean.getStartTime
    val selfTestMisses = Checks.selfTest()

    // ---- set-up: Spark session, the generated stream, the edge DataFrame.
    val cores = Runtime.getRuntime.availableProcessors()
    val spark = SparkSession.builder()
      .master(s"local[$cores]")
      .appName(s"s5pbench-${w.name}")
      .config("spark.ui.enabled", "false")
      .config("spark.driver.host", "127.0.0.1")
      // One shuffle partition per task thread: the default 200 runs 50
      // waves of near-empty tasks on a 4-thread local master.
      .config("spark.sql.shuffle.partitions", cores.toString)
      .config("spark.local.dir", out.resolve("spark-local").toAbsolutePath.toString)
      .config("spark.sql.warehouse.dir", out.resolve("spark-warehouse").toAbsolutePath.toString)
      .getOrCreate()
    spark.sparkContext.setLogLevel("WARN")
    val (stream, edgesDf) = span("setup") {
      val stream = span("GraphGen.generate")(w.generate(seed))
      val edgesDf = span("GraphOps.to_df")(GraphGen.toDf(spark, stream).cache())
      (stream, edgesDf)
    }
    val setupS = (System.currentTimeMillis() - jvmStartMs) / 1000.0
    val g = OwnGraph(stream)

    // The timed calls do not use Spark: it is stopped before them.
    if (!traced) spark.stop()
    val gc0 = gcMs()
    val steal0 = stealS()
    val callS =
      if (traced) { tracedRun(spark, edgesDf, stream, g); Seq.empty[Double] }
      else timedRun(stream, g, setupS)
    val gcS = (gcMs() - gc0) / 1000.0
    val stealTotal = stealS() - steal0
    if (traced) spark.stop()

    if (traced) {
      metric("jvm.gc_s", gcS, "s")
      metric("host.steal_s", stealTotal, "s")
      tracer.writeJson(out.resolve(s"trace-${w.name}-seed$seed.json"))
    }
    // Noise diagnostics, kept off the result line (compare.py reads them).
    println(s"""{"diag": {"workload": "${w.name}", "seed": $seed, "trace": $traced, """ +
      s""""call_s": [${callS.mkString(", ")}], "jvm.gc_s": $gcS, """ +
      s""""host.steal_s": $stealTotal}}""")
    selfTestMisses.foreach(n => Console.err.println(s"self-test: the checks missed '$n'"))
    checks.failed.distinct.foreach(n => Console.err.println(s"check failed: $n"))
    val body = metrics.map { case (n, (v, u)) => s""""$n": {"value": $v, "unit": "$u"}""" }
    s"""{"correct": ${selfTestMisses.isEmpty}, "attempted": ${checks.attempted}, """ +
      s""""failed": ${checks.failed.length}, "metrics": {${body.mkString(", ")}}}"""
  }

  private def checkStats(name: String, stats: GraphStats, g: OwnGraph): Unit = {
    checks.check(s"$name.counts")(
      stats.numEdges == g.numEdges && stats.numVertices == g.numVertices)
    checks.check(s"$name.degrees")(
      g.ids.indices.forall(i => stats.degree(g.ids(i)) == g.degree(i)))
  }

  private def balance(pids: Array[Int], k: Int): Double = {
    val loads = new Array[Long](k)
    pids.foreach(p => loads(p) += 1)
    k.toDouble * loads.max / pids.length
  }

  /** The end-to-end run: untraced `S5P.partition` calls on the generated
    * stream, held in an array as `GraphOps.collectStream` returns it. The
    * first `WarmupCalls` calls in the process warm the JIT and are not
    * counted: the second call still takes about 1.2–1.4× as long as later ones.
    */
  private def timedRun(stream: IndexedSeq[Edge], g: OwnGraph, setupS: Double): Seq[Double] = {
    val edges = ArraySeq.unsafeWrapArray(stream.toArray)
    val stats = Tables.localStats(edges)
    checkStats("stats.driver", stats, g)
    val ctx = PartitionContext(w.k, stats, Tau)
    val calls = rounds(minRounds = WarmupCalls + 2)(timeCall(s5p, edges, ctx))
    val pids = calls.head.pids
    val rf = Metrics.replicationFactor(edges, pids)
    checks.assignment(g, pids, w.k, Tau, rf)
    calls.tail.foreach(c => checks.check("s5p.deterministic")(java.util.Arrays.equals(c.pids, pids)))
    val warm = calls.drop(WarmupCalls)
    metric("s5p_edges_per_s", g.numEdges / median(warm.map(_.seconds)), "edges/s")
    metric("s5p_alloc_mib", median(warm.map(_.allocBytes / MiB)), "MiB")
    metric("setup_s", setupS, "s")
    metric("rf", rf, "ratio")
    metric("balance", balance(pids, w.k), "ratio")
    calls.map(_.seconds)
  }

  /** The traced run: the PartitionJob path once (its S5P step composed
    * phase by phase), then pairs of an untraced `S5P.partition` call and a
    * composed call, then one call each of HDRF and CLUGP.
    */
  private def tracedRun(spark: SparkSession, edgesDf: DataFrame, stream: IndexedSeq[Edge],
                        g: OwnGraph): Unit = {
    val k = w.k
    val t0 = System.nanoTime()
    val (stats, collected, jobPids, rfDf) = span("PartitionJob") {
      val stats = span("GraphOps.stats")(GraphOps.stats(edgesDf))
      val collected = span("GraphOps.collect")(GraphOps.collectStream(edgesDf))
      val pids = composedCall(ArraySeq.unsafeWrapArray(collected),
        PartitionContext(k, stats, Tau))._1.pids
      val assigned = span("GraphOps.assign")(
        GraphOps.withAssignment(spark, edgesDf, pids).cache())
      val rfDf = span("Metrics.rf_df")(Metrics.replicationFactorDf(assigned))
      assigned.unpersist()
      (stats, collected, pids, rfDf)
    }
    metric("PartitionJob.first_pass_s", (System.nanoTime() - t0) / 1e9, "s")

    checkStats("stats.spark", stats, g)
    checks.check("collect.stream_order")(collected.sameElements(stream))
    val edges = ArraySeq.unsafeWrapArray(collected)
    checks.assignment(g, jobPids, k, Tau, Metrics.replicationFactor(edges, jobPids))
    checks.check("rf.equals_spark")(Checks.replicationFactor(g, jobPids, k) == rfDf)

    val ctx = PartitionContext(k, stats, Tau)
    val pairs = rounds(minRounds = 2) {
      val plain = timeCall(s5p, edges, ctx)
      val composed = composedCall(edges, ctx)
      checks.check("s5p.deterministic")(java.util.Arrays.equals(plain.pids, jobPids))
      checks.check("trace.composition_matches")(
        java.util.Arrays.equals(composed._1.pids, plain.pids))
      (plain, composed)
    }
    layerMetrics(edges, stats, pairs.map(_._2), pairs.map(_._1.seconds))

    for (p <- Seq[EdgePartitioner](HDRF(), CLUGP(tau = Tau))) {
      val call = timeCall(p, edges, ctx)
      metric(s"${p.name}.edges_per_s", edges.length / call.seconds, "edges/s")
      metric(s"${p.name}.rf", Metrics.replicationFactor(edges, call.pids), "ratio")
      metric(s"${p.name}.alloc_mib", call.allocBytes / MiB, "MiB")
    }
  }

  /** `S5P.partition`'s cluster-level path, phase by phase, each phase in its
    * own span; the parameters come from the `S5P` instance.
    */
  private def composedCall(stream: IndexedSeq[Edge], ctx: PartitionContext): (Phases, Span) = {
    val allocs = scala.collection.mutable.LinkedHashMap.empty[String, Long]
    def phase[A](name: String)(body: => A): A = {
      val a0 = allocatedBytes()
      val r = tracer.span(name)(body)
      allocs(name) = allocatedBytes() - a0
      r
    }
    val p = s5p
    val stats = ctx.stats
    val k = ctx.k
    val ph = tracer.span("S5P") {
      val clustering = phase("SkewClustering.cluster")(SkewClustering.cluster(
        stream, stats, k, p.beta,
        kappaOverride =
          if (p.bounded) Some(Double.PositiveInfinity)
          else if (p.kappaScale != 1.0) Some(p.kappaScale * 2.0 * stats.numEdges / k)
          else None,
        globalTail = p.bounded))
      val input = phase("GameInput.build")(
        GameInput.build(stream, stats, clustering, p.useCms, p.eps, p.nu))
      val capacity =
        if (p.bounded) Long.MaxValue
        else math.ceil(p.tau * stats.numEdges / k.toDouble).toLong
      val game = phase("StackelbergGame.solve")(StackelbergGame.solve(input, k,
        StackelbergGame.Config(p.twoStage, p.maxRounds, p.batchSize, p.threads,
          capacity = if (p.bounded) Double.PositiveInfinity else capacity.toDouble)))
      val nH = input.numHead
      val pids = phase("Postprocess.assign")(Postprocess.assign(
        stream, k, capacity,
        e => SkewClustering.isHeadEdge(e, stats, clustering.xi),
        (e, head) =>
          if (head)
            (game.c2p(input.headIdOf.get(clustering.v2cH.get(e.src))),
             game.c2p(input.headIdOf.get(clustering.v2cH.get(e.dst))))
          else
            (game.c2p(nH + input.tailIdOf.get(clustering.v2cT.get(e.src))),
             game.c2p(nH + input.tailIdOf.get(clustering.v2cT.get(e.dst)))),
        degree = stats.degree, xi = clustering.xi, headWeight = p.headWeight))
      Phases(pids, clustering, input, game, clustering.stateBytes + game.stateBytes,
        allocs.toMap)
    }
    (ph, tracer.lastEnded)
  }

  /** Per-layer metrics: Spark layers from the job's single pass, S5P phases
    * as medians over the warm composed calls (the job's call is the
    * process's first and is left out).
    */
  private def layerMetrics(stream: IndexedSeq[Edge], stats: GraphStats,
                           composed: Seq[(Phases, Span)], untracedS: Seq[Double]): Unit = {
    def spanS(name: String): Double =
      tracer.spans.find(_.name == name).map(tracer.selfNs(_) / 1e9).getOrElse(Double.NaN)
    metric("GraphGen.busy_s", spanS("GraphGen.generate"), "s")
    metric("GraphOps.to_df_s", spanS("GraphOps.to_df"), "s")
    metric("GraphOps.stats_s", spanS("GraphOps.stats"), "s")
    metric("GraphOps.collect_s", spanS("GraphOps.collect"), "s")
    metric("GraphOps.assign_s", spanS("GraphOps.assign"), "s")
    metric("Metrics.rf_df_s", spanS("Metrics.rf_df"), "s")

    def phaseS(name: String): Double = median(composed.map { case (_, s5pSpan) =>
      tracer.children(s5pSpan).find(_.name == name).map(_.ns / 1e9).getOrElse(Double.NaN)
    })
    def phaseMiB(name: String): Double = median(composed.map(_._1.allocBytes(name) / MiB))
    val last = composed.last._1

    metric("SkewClustering.busy_s", phaseS("SkewClustering.cluster"), "s")
    metric("SkewClustering.alloc_mib", phaseMiB("SkewClustering.cluster"), "MiB")
    val xi = last.clustering.xi
    metric("SkewClustering.head_edges",
      stream.count(e => SkewClustering.isHeadEdge(e, stats, xi)).toDouble, "count")
    metric("SkewClustering.state_kib", last.clustering.stateBytes / 1024.0, "KiB")

    // Θ estimate over exact, summed over the same cluster pairs; the exact
    // view is built untimed from the same clustering.
    val in = last.input
    val exact = GameInput.build(stream, stats, last.clustering, useCms = false)
    var pairs = 0L
    var est = 0.0
    var truth = 0.0
    for (c <- 0 until exact.numClusters; d <- exact.nbrs(c) if c < d) {
      pairs += 1
      est += in.weightOf(c, d)
      truth += exact.weightOf(c, d)
    }
    metric("GameInput.busy_s", phaseS("GameInput.build"), "s")
    metric("GameInput.alloc_mib", phaseMiB("GameInput.build"), "MiB")
    metric("GameInput.clusters", in.numClusters.toDouble, "count")
    metric("GameInput.head_clusters", in.numHead.toDouble, "count")
    metric("GameInput.theta_pairs", pairs.toDouble, "count")
    metric("GameInput.theta_est_over_exact", est / truth, "ratio")
    metric("GameInput.state_kib", in.stateBytes / 1024.0, "KiB")

    metric("StackelbergGame.busy_s", phaseS("StackelbergGame.solve"), "s")
    metric("StackelbergGame.rounds", last.game.rounds.toDouble, "count")
    metric("StackelbergGame.delta", last.game.delta, "ratio")
    metric("StackelbergGame.state_kib", last.game.stateBytes / 1024.0, "KiB")

    metric("Postprocess.busy_s", phaseS("Postprocess.assign"), "s")
    metric("Postprocess.alloc_mib", phaseMiB("Postprocess.assign"), "MiB")

    val tracedS = median(composed.map(_._2.ns / 1e9))
    metric("S5P.state_kib", last.stateBytes / 1024.0, "KiB")
    metric("S5P.phase_coverage", median(composed.map { case (_, sp) =>
      tracer.children(sp).map(_.ns).sum.toDouble / sp.ns
    }), "ratio")
    metric("S5P.trace_overhead_s", tracedS - median(untracedS), "s")
  }
}
