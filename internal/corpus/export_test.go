package corpus

// FastPathLines reports how many of a JSONL file's company lines the fast
// path decodes, out of how many there are — for the external tests, which
// can import datagen where this package's own cannot.
func FastPathLines(data []byte, catalog *Catalog) (fast, total int) {
	_, body := cutLine(data) // the header
	var dec lineDecoder
	for len(body) > 0 {
		var line []byte
		line, body = cutLine(body)
		if dec.canonical(line, catalog) {
			fast++
		}
		total++
	}
	return fast, total
}
