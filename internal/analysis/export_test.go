package analysis

// AnalyzeTopologyCounting is AnalyzeTopology plus the number of BFS
// sources its sweep ran — a count repeats exactly where a wall clock does
// not, so the tests pin the cost of analytic mode with it.
var AnalyzeTopologyCounting = analyzeTopology
