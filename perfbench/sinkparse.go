package main

import (
	"bytes"
	"strconv"
)

// The sink reads the few fields it checks straight out of the JSON bytes
// instead of unmarshalling whole TrainEvents and Decisions, so it
// allocates nothing per output. Every field it reads sits at the top level
// ahead of the optional nested trace context, so the first occurrence of a
// key is the top-level one.
var (
	keySeq      = []byte(`"seq":`)
	keyExamples = []byte(`"examples":`)
	keyScore    = []byte(`"score":`)
	keyLabel    = []byte(`"label":"`)
)

// jsonNumber returns the bytes of the number that follows key, or nil.
func jsonNumber(b, key []byte) []byte {
	i := bytes.Index(b, key)
	if i < 0 {
		return nil
	}
	b = b[i+len(key):]
	end := 0
	for end < len(b) && b[end] != ',' && b[end] != '}' {
		end++
	}
	return b[:end]
}

// jsonUint parses the unsigned integer that follows key.
func jsonUint(b, key []byte) (uint64, bool) {
	num := jsonNumber(b, key)
	if len(num) == 0 {
		return 0, false
	}
	var v uint64
	for _, c := range num {
		if c < '0' || c > '9' {
			return 0, false
		}
		v = v*10 + uint64(c-'0')
	}
	return v, true
}

// jsonFloat parses the float that follows key.
func jsonFloat(b, key []byte) (float64, bool) {
	num := jsonNumber(b, key)
	if len(num) == 0 {
		return 0, false
	}
	v, err := strconv.ParseFloat(string(num), 64)
	return v, err == nil
}

// jsonLabel maps the Decision's label to a label code (labelNone when the
// field is absent, as encoding/json omits an empty label).
func jsonLabel(b []byte) uint8 {
	i := bytes.Index(b, keyLabel)
	if i < 0 {
		return labelNone
	}
	b = b[i+len(keyLabel):]
	end := bytes.IndexByte(b, '"')
	if end < 0 {
		return labelOther
	}
	switch string(b[:end]) {
	case "pos":
		return labelPos
	case "neg":
		return labelNeg
	case "normal":
		return labelNormal
	case "anomaly":
		return labelAnomaly
	}
	return labelOther
}
