package graph

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// The text serialization is line oriented:
//
//	# comment
//	obj <name>
//	link <from> <to> <label>
//	atomic <obj> <sort> <value>
//
// Fields are quoted with Go string-literal syntax when they contain spaces.
// Objects mentioned only in link lines are complex. Read interns objects in
// order of first mention, so Write opens with one "obj" record per object in
// ID order: Read(Write(db)) keeps every ObjectID, which spilled snapshots
// keyed by ID rely on, and isolated complex objects survive.

// Write serializes db in the text format. Output is deterministic: objects
// in ID order, edges in (Label, To) order.
func (db *DB) Write(w io.Writer) error {
	bw := bufio.NewWriter(w)
	for id := range db.names {
		if _, err := fmt.Fprintf(bw, "obj %s\n", quoteField(db.Name(ObjectID(id)))); err != nil {
			return err
		}
	}
	var err error
	db.Links(func(e Edge) {
		if err != nil {
			return
		}
		_, err = fmt.Fprintf(bw, "link %s %s %s\n",
			quoteField(db.Name(e.From)), quoteField(db.Name(e.To)), quoteField(e.Label))
	})
	if err != nil {
		return err
	}
	atoms := db.AtomicObjects()
	sort.Slice(atoms, func(i, j int) bool { return atoms[i] < atoms[j] })
	for _, o := range atoms {
		v := db.atomic[o]
		if _, err := fmt.Fprintf(bw, "atomic %s %s %s\n",
			quoteField(db.Name(o)), v.Sort, quoteField(v.Text)); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// Read parses the text format into a new database.
func Read(r io.Reader) (*DB, error) {
	return ReadLimits(r, Limits{})
}

// ReadLimits is Read with resource budgets: parsing stops with a *LimitError
// as soon as the input exceeds lim's byte, object, or link caps.
func ReadLimits(r io.Reader, lim Limits) (*DB, error) {
	db := New()
	sc := bufio.NewScanner(newCappedReader(r, lim.MaxBytes))
	sc.Buffer(make([]byte, 1<<16), 1<<22)
	lineNo := 0
	for sc.Scan() {
		// A byte-cap violation surfaces as a scanner error alongside a
		// truncated final token; report the cap, not a bogus parse error.
		if err := sc.Err(); err != nil {
			return nil, err
		}
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields, err := splitFields(line)
		if err != nil {
			return nil, fmt.Errorf("graph: line %d: %v", lineNo, err)
		}
		switch fields[0] {
		case "obj":
			if len(fields) != 2 {
				return nil, fmt.Errorf("graph: line %d: obj needs 1 field, got %d", lineNo, len(fields)-1)
			}
			db.Intern(fields[1])
		case "link":
			if len(fields) != 4 {
				return nil, fmt.Errorf("graph: line %d: link needs 3 fields, got %d", lineNo, len(fields)-1)
			}
			if err := db.AddLink(db.Intern(fields[1]), db.Intern(fields[2]), fields[3]); err != nil {
				return nil, fmt.Errorf("graph: line %d: %v", lineNo, err)
			}
		case "atomic":
			if len(fields) != 4 {
				return nil, fmt.Errorf("graph: line %d: atomic needs 3 fields, got %d", lineNo, len(fields)-1)
			}
			s, err := parseSort(fields[2])
			if err != nil {
				return nil, fmt.Errorf("graph: line %d: %v", lineNo, err)
			}
			if err := db.SetAtomic(db.Intern(fields[1]), Value{Sort: s, Text: fields[3]}); err != nil {
				return nil, fmt.Errorf("graph: line %d: %v", lineNo, err)
			}
		default:
			return nil, fmt.Errorf("graph: line %d: unknown record %q", lineNo, fields[0])
		}
		if err := lim.checkCounts(db); err != nil {
			return nil, fmt.Errorf("graph: line %d: %w", lineNo, err)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if err := db.Validate(); err != nil {
		return nil, err
	}
	return db, nil
}

func parseSort(s string) (Sort, error) {
	switch s {
	case "string":
		return SortString, nil
	case "int":
		return SortInt, nil
	case "float":
		return SortFloat, nil
	case "bool":
		return SortBool, nil
	}
	return 0, fmt.Errorf("unknown sort %q", s)
}

// InferSort classifies a textual value into a Sort (Remark 2.1: in practice
// it is often easy to separate atomic values into different sorts).
func InferSort(text string) Sort {
	if _, err := strconv.ParseInt(text, 10, 64); err == nil {
		return SortInt
	}
	if _, err := strconv.ParseFloat(text, 64); err == nil {
		return SortFloat
	}
	if text == "true" || text == "false" {
		return SortBool
	}
	return SortString
}

func quoteField(s string) string {
	if s == "" {
		return strconv.Quote(s)
	}
	for _, r := range s {
		if r <= ' ' || r == '"' || r == '\\' || !strconv.IsPrint(r) {
			return strconv.Quote(s)
		}
	}
	return s
}

// splitFields splits a line into whitespace-separated fields, honoring
// Go-quoted strings.
func splitFields(line string) ([]string, error) {
	var fields []string
	i := 0
	for i < len(line) {
		for i < len(line) && (line[i] == ' ' || line[i] == '\t') {
			i++
		}
		if i >= len(line) {
			break
		}
		if line[i] == '"' {
			j := i + 1
			for j < len(line) {
				if line[j] == '\\' {
					j += 2
					continue
				}
				if line[j] == '"' {
					break
				}
				j++
			}
			if j >= len(line) {
				return nil, fmt.Errorf("unterminated quote")
			}
			unq, err := strconv.Unquote(line[i : j+1])
			if err != nil {
				return nil, fmt.Errorf("bad quoted field %s: %v", line[i:j+1], err)
			}
			fields = append(fields, unq)
			i = j + 1
			continue
		}
		j := i
		for j < len(line) && line[j] != ' ' && line[j] != '\t' {
			j++
		}
		fields = append(fields, line[i:j])
		i = j
	}
	if len(fields) == 0 {
		return nil, fmt.Errorf("empty line")
	}
	return fields, nil
}
