package dnsmsg

// AppendRData serializes just the rdata of d (no RDLENGTH prefix, no
// compression). Other packages use it for rdata equality checks and
// digest computation.
func AppendRData(buf []byte, d RData) ([]byte, error) {
	return d.appendRData(buf)
}

// AppendCanonicalRR serializes a full RR in RFC 4034 §6 canonical form:
// owner and embedded names uncompressed and lowercase, for use in RRSIG
// computation and DS digests. Owner names are already canonical-lowercase
// in this codec, so the distinction from AppendRR is the absence of
// compression in rdata.
func AppendCanonicalRR(buf []byte, rr RR) ([]byte, error) {
	return appendRR(buf, rr, nil)
}

// AppendRR serializes a full RR without message context (no compression).
func AppendRR(buf []byte, rr RR) ([]byte, error) {
	return appendRR(buf, rr, nil)
}

// AppendNameWire serializes just a domain name in uncompressed wire form
// (for DS digests and similar canonical constructions).
func AppendNameWire(buf []byte, n Name) ([]byte, error) {
	return appendName(buf, n, nil)
}
