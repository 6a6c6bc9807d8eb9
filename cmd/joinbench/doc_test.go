package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// quotedBlock is one fenced block of EXPERIMENTS.md with no info string:
// its lines, whitespace-normalised, and the doc line number of each.
type quotedBlock struct {
	lines []string
	at    []int
}

// quotedBlocks returns doc's fenced blocks that have no info string, except
// a block whose opening fence directly follows a
// `<!-- not in golden: <reason> -->` comment (blank lines between them
// allowed).
func quotedBlocks(t *testing.T, doc string) []quotedBlock {
	t.Helper()
	var blocks []quotedBlock
	var cur *quotedBlock
	inFence, prev := false, ""
	for i, line := range strings.Split(doc, "\n") {
		trimmed := strings.TrimSpace(line)
		if strings.HasPrefix(trimmed, "```") {
			if inFence {
				if cur != nil {
					blocks = append(blocks, *cur)
				}
				inFence, cur, prev = false, nil, trimmed
				continue
			}
			inFence = true
			if strings.TrimPrefix(trimmed, "```") == "" && !optedOut(prev) {
				cur = &quotedBlock{}
			}
			continue
		}
		if inFence {
			if cur != nil && trimmed != "" {
				cur.lines = append(cur.lines, normalize(line))
				cur.at = append(cur.at, i+1)
			}
			continue
		}
		if trimmed != "" {
			prev = trimmed
		}
	}
	if inFence {
		t.Fatal("EXPERIMENTS.md ends inside a fenced block")
	}
	return blocks
}

// optedOut reports whether line is a `<!-- not in golden: <reason> -->`
// comment with a nonempty reason.
func optedOut(line string) bool {
	reason, ok := strings.CutPrefix(line, "<!-- not in golden:")
	if !ok || !strings.HasSuffix(reason, "-->") {
		return false
	}
	return strings.TrimSpace(strings.TrimSuffix(reason, "-->")) != ""
}

func normalize(line string) string { return strings.Join(strings.Fields(line), " ") }

// firstUnquoted returns the index of the first of lines that is not a line
// of golden after the lines before it, or -1 when every line is: a block
// quotes the golden's lines in the golden's order, skipping any it leaves
// out.
func firstUnquoted(golden, lines []string) int {
	j := 0
	for i, l := range lines {
		for j < len(golden) && golden[j] != l {
			j++
		}
		if j == len(golden) {
			return i
		}
		j++
	}
	return -1
}

// TestExperimentsQuoteGolden checks that EXPERIMENTS.md quotes what the
// suite prints: every line of a fenced block with no info string is a line
// of testdata/suite.golden (whitespace normalised, in the golden's order),
// unless a `<!-- not in golden: <reason> -->` comment precedes the fence.
// It also checks that the comparison has teeth: changing any one digit of
// a quoted line makes that block fail.
func TestExperimentsQuoteGolden(t *testing.T) {
	doc, err := os.ReadFile(filepath.Join("..", "..", "EXPERIMENTS.md"))
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join("testdata", "suite.golden"))
	if err != nil {
		t.Fatal(err)
	}
	var golden []string
	for _, l := range strings.Split(string(raw), "\n") {
		golden = append(golden, normalize(l))
	}
	blocks := quotedBlocks(t, string(doc))
	if len(blocks) == 0 {
		t.Fatal("EXPERIMENTS.md quotes no fenced block")
	}
	for _, b := range blocks {
		if i := firstUnquoted(golden, b.lines); i >= 0 {
			t.Errorf("EXPERIMENTS.md:%d is not a line of suite.golden (in order): %q", b.at[i], b.lines[i])
			continue
		}
		edited := append([]string(nil), b.lines...)
		for i, l := range b.lines {
			for k := 0; k < len(l); k++ {
				if l[k] < '0' || l[k] > '9' {
					continue
				}
				edited[i] = l[:k] + string('0'+(l[k]-'0'+1)%10) + l[k+1:]
				if firstUnquoted(golden, edited) < 0 {
					t.Errorf("EXPERIMENTS.md:%d still matches the golden with digit %d changed: %q", b.at[i], k, edited[i])
				}
			}
			edited[i] = l
		}
	}
}
