package history

import (
	"fmt"
	"strconv"
	"strings"
)

// Parse parses the textual format produced by History.String back into a
// History: events separated by " · ", each "op[@obj]_p(arg)" for
// invocations, "ret[@obj]_p[op][=val]" for responses, "crash_p" for
// crashes and "recover_p" for recoveries. An invocation whose operation
// is named like another kind's prefix ("retry_1()", "crash_2()") is
// still an invocation: only its parenthesized argument tells it apart.
// Numeric values parse as ints, "true"/"false" as bools, everything
// else as strings (so a string value that looks like a number does not
// round-trip — test fixtures avoid that). Every history Parse accepts
// renders back, through History.String, to text that parses to it.
func Parse(s string) (History, error) {
	s = strings.TrimSpace(s)
	if s == "" || s == "ε" {
		return History{}, nil
	}
	var h History
	for _, tok := range strings.Split(s, "·") {
		tok = strings.TrimSpace(tok)
		if tok == "" {
			continue
		}
		e, err := parseEvent(tok)
		if err != nil {
			return nil, err
		}
		h = append(h, e)
	}
	return h, nil
}

// MustParse is Parse that panics on error, for test fixtures.
func MustParse(s string) History {
	h, err := Parse(s)
	if err != nil {
		panic(err)
	}
	return h
}

func parseEvent(tok string) (Event, error) {
	if !strings.HasSuffix(tok, ")") {
		if rest, ok := strings.CutPrefix(tok, "crash_"); ok {
			return parseProcEvent(tok, rest, Crash)
		}
		if rest, ok := strings.CutPrefix(tok, "recover_"); ok {
			return parseProcEvent(tok, rest, Recover)
		}
	}
	if rest, ok := strings.CutPrefix(tok, "ret"); ok && (strings.HasPrefix(rest, "_") || strings.HasPrefix(rest, "@")) {
		return parseResponse(tok, rest)
	}
	return parseInvoke(tok)
}

// parseProcEvent parses the process of a crash or recover event.
func parseProcEvent(tok, proc string, event func(int) Event) (Event, error) {
	p, err := strconv.Atoi(proc)
	if err != nil {
		return Event{}, fmt.Errorf("history: bad %s event %q: %w", event(0).Kind, tok, err)
	}
	return event(p), nil
}

func parseResponse(tok, rest string) (Event, error) {
	obj := ""
	if r, ok := strings.CutPrefix(rest, "@"); ok {
		i := strings.IndexByte(r, '_')
		if i < 0 {
			return Event{}, fmt.Errorf("history: bad response %q", tok)
		}
		obj, rest = r[:i], r[i:]
	}
	rest, ok := strings.CutPrefix(rest, "_")
	if !ok {
		return Event{}, fmt.Errorf("history: bad response %q", tok)
	}
	open := strings.IndexByte(rest, '[')
	closing := strings.IndexByte(rest, ']')
	if open < 0 || closing < open {
		return Event{}, fmt.Errorf("history: bad response %q", tok)
	}
	p, err := strconv.Atoi(rest[:open])
	if err != nil {
		return Event{}, fmt.Errorf("history: bad process in %q: %w", tok, err)
	}
	op := rest[open+1 : closing]
	var val Value
	if tail := rest[closing+1:]; tail != "" {
		v, ok := strings.CutPrefix(tail, "=")
		if !ok {
			return Event{}, fmt.Errorf("history: bad response value in %q", tok)
		}
		val = parseValue(v)
	}
	e := Event{Kind: KindResponse, Proc: p, Op: op, Obj: obj, Val: val}
	return e, nil
}

func parseInvoke(tok string) (Event, error) {
	open := strings.IndexByte(tok, '(')
	if open < 0 || !strings.HasSuffix(tok, ")") {
		return Event{}, fmt.Errorf("history: bad invocation %q", tok)
	}
	head := tok[:open]
	argStr := tok[open+1 : len(tok)-1]
	under := strings.LastIndexByte(head, '_')
	if under < 0 {
		return Event{}, fmt.Errorf("history: bad invocation %q", tok)
	}
	p, err := strconv.Atoi(head[under+1:])
	if err != nil {
		return Event{}, fmt.Errorf("history: bad process in %q: %w", tok, err)
	}
	name := head[:under]
	obj := ""
	if at := strings.IndexByte(name, '@'); at >= 0 {
		name, obj = name[:at], name[at+1:]
	}
	var arg Value
	if argStr != "" {
		arg = parseValue(argStr)
	}
	return Event{Kind: KindInvoke, Proc: p, Op: name, Obj: obj, Arg: arg}, nil
}

func parseValue(s string) Value {
	if n, err := strconv.Atoi(s); err == nil {
		return n
	}
	if s == "true" {
		return true
	}
	if s == "false" {
		return false
	}
	return s
}
