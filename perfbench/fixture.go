package main

import (
	"bytes"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"fmt"

	"github.com/kfrida1/csdinf/internal/lstm"
)

// weightsText is the trained-weights fixture in the lstm.ReadText format,
// exported once by
//
//	go run ./cmd/ransomtrain -target 0.97 -seed 1 -out perfbench/weights.txt
//
// from the repository root (2900 synthesized sequences, early stop after
// epoch 3 at 0.9707 held-out accuracy). Loading it instead of retraining
// keeps about 15 s of training out of every run's set-up, and makes recall,
// FPR and calls-to-block meaningful: an untrained model flags at random.
//
//go:embed weights.txt
var weightsText []byte

// weightsSHA256 pins the fixture: a retrained or edited file changes every
// verdict, so it must fail loudly rather than move the quality metrics.
const weightsSHA256 = "10a631ab1103e380c5521cfbcdb69250085e330981deafdf3e18e44a41d46d77"

// loadModel verifies the fixture's hash and parses it.
func loadModel() (*lstm.Model, error) {
	sum := sha256.Sum256(weightsText)
	if got := hex.EncodeToString(sum[:]); got != weightsSHA256 {
		return nil, fmt.Errorf("weights fixture hash %s, want %s", got, weightsSHA256)
	}
	m, err := lstm.ReadText(bytes.NewReader(weightsText))
	if err != nil {
		return nil, fmt.Errorf("parse weights fixture: %w", err)
	}
	return m, nil
}
