/**
 * @file
 * Host-speed gauge. A fixed kernel of the benchmark's own code, run
 * between a workload's units of work and timed on the same thread's
 * CPU clock, tells how fast a core of the host runs at that moment.
 * On a shared host that speed changes by up to 2x for minutes at a
 * time (co-tenants on the core's SMT sibling, turbo headroom, shared
 * cache and memory bandwidth), and the CPU clock does not leave it
 * out: it moves every unit of work measured then. Dividing each unit's
 * time by the gauge's slowdown over the same stretch of the run takes
 * most of it out; a change in the program moves the workload and not
 * the gauge, so it stays in.
 *
 * The kernel is branchy integer work on a binary heap. Probes that
 * alternated each workload with a vector floating-point loop, random
 * reads from a 64 MiB buffer and this heap found the heap tracking
 * every workload best, the memory-bound training model's included
 * (correlation 0.74 to 0.95 over windows of about a second); the other
 * two swung two to three times as far as the workloads did, and
 * weighing them in made the normalised figures noisier.
 */
#pragma once

namespace perfbench {

/**
 * Run the gauge's kernel once on the calling thread and return its
 * thread CPU time over the kernel's time on a core of the nominal
 * host: about 1 there, 2 when the host runs at half that speed.
 */
double hostSlowdown();

} // namespace perfbench
