//go:build !chaos && !stopify_noprof

package main

// refusedBuild names the build tag that makes this binary unfit to measure;
// empty for a plain build.
const refusedBuild = ""
