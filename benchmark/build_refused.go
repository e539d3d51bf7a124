//go:build chaos || stopify_noprof

package main

// The chaos tag adds a fault-injection seam to every scheduling turn and
// stopify_noprof compiles the profiler seam out of the statement boundary:
// either measures a different program than the one that ships.
const refusedBuild = "chaos or stopify_noprof"
