package main

import (
	"bufio"
	"fmt"
	"os"
	"strings"
	"time"

	"nra/internal/service"
)

// remoteMain is the -connect client: the same shell surface as the
// local REPL, but every statement travels the line protocol to an nrad
// server. Session state (strategy, 2VL, vectorized, timeout, pinned
// snapshot, prepared statements) lives server-side in
// the connection's session.
func remoteMain(addr, eval string) {
	c, err := service.DialLine(addr)
	if err != nil {
		fail(fmt.Errorf("connect %s: %w", addr, err))
	}
	defer c.Close()

	if eval != "" {
		if err := remoteRun(c, eval); err != nil {
			fail(err)
		}
		return
	}

	fmt.Printf("nraql — connected to %s (session %s)\n", addr, c.Session())
	fmt.Println(`type SQL ending with ';', or \q to quit`)
	scanner := bufio.NewScanner(os.Stdin)
	scanner.Buffer(make([]byte, 1<<20), 1<<20)
	var buf strings.Builder
	prompt := func() {
		if buf.Len() == 0 {
			fmt.Printf("%s> ", c.Session())
		} else {
			fmt.Print("  ...> ")
		}
	}
	prompt()
	for scanner.Scan() {
		line := scanner.Text()
		trimmed := strings.TrimSpace(line)
		if buf.Len() == 0 && strings.HasPrefix(trimmed, `\`) {
			if quit := remoteCommand(c, trimmed); quit {
				return
			}
			prompt()
			continue
		}
		buf.WriteString(line)
		buf.WriteByte('\n')
		if strings.HasSuffix(trimmed, ";") {
			src := strings.TrimSuffix(strings.TrimSpace(buf.String()), ";")
			buf.Reset()
			if err := remoteRun(c, src); err != nil {
				fmt.Println("error:", err)
			}
		}
		prompt()
	}
}

// remoteCommand executes one backslash command, reporting whether the
// shell should exit.
func remoteCommand(c *service.LineClient, trimmed string) bool {
	word := func(prefix string) string {
		return strings.TrimSuffix(strings.TrimSpace(strings.TrimPrefix(trimmed, prefix)), ";")
	}
	show := func(resp service.Response, err error) {
		if err != nil {
			fmt.Println("error:", err)
			return
		}
		if resp.Text != "" {
			fmt.Print(resp.Text)
			if !strings.HasSuffix(resp.Text, "\n") {
				fmt.Println()
			}
		}
	}
	switch {
	case trimmed == `\q` || trimmed == `\quit`:
		return true
	case trimmed == `\tables`:
		resp, err := c.Do(service.Request{Op: service.OpTables})
		if err != nil {
			fmt.Println("error:", err)
			break
		}
		for _, t := range resp.Tables {
			fmt.Printf("  %-12s %8d rows\n", t.Name, t.Rows)
		}
	case strings.HasPrefix(trimmed, `\strategy`):
		show(c.Do(service.Request{Op: service.OpSet, Key: "strategy", Value: word(`\strategy`)}))
	case strings.HasPrefix(trimmed, `\2vl`):
		show(c.Do(service.Request{Op: service.OpSet, Key: "2vl", Value: word(`\2vl`)}))
	case strings.HasPrefix(trimmed, `\vec`):
		show(c.Do(service.Request{Op: service.OpSet, Key: "vectorized", Value: word(`\vec`)}))
	case strings.HasPrefix(trimmed, `\set`):
		fields := strings.Fields(word(`\set`))
		if len(fields) != 2 {
			fmt.Println(`usage: \set <option> <value>   (strategy, timeout, 2vl, vectorized)`)
			break
		}
		show(c.Do(service.Request{Op: service.OpSet, Key: fields[0], Value: fields[1]}))
	case strings.HasPrefix(trimmed, `\explain`):
		src := word(`\explain`)
		op := service.OpExplain
		if rest, ok := cutWord(src, "analyze"); ok {
			op, src = service.OpExplainAnalyze, rest
		}
		show(c.Do(service.Request{Op: op, SQL: src}))
	case strings.HasPrefix(trimmed, `\waterfall`):
		src := word(`\waterfall`)
		if src == "" {
			fmt.Println(`usage: \waterfall select ...`)
			break
		}
		show(c.Do(service.Request{Op: service.OpWaterfall, SQL: src}))
	case strings.HasPrefix(trimmed, `\stats`):
		show(c.Do(service.Request{Op: service.OpStats, Table: word(`\stats`)}))
	case trimmed == `\pin`:
		resp, err := c.Do(service.Request{Op: service.OpPin})
		if err != nil {
			fmt.Println("error:", err)
			break
		}
		fmt.Printf("pinned at epoch %d\n", resp.Epoch)
	case trimmed == `\unpin`:
		if _, err := c.Do(service.Request{Op: service.OpUnpin}); err != nil {
			fmt.Println("error:", err)
			break
		}
		fmt.Println("unpinned — reading latest")
	default:
		fmt.Println(`unknown command; try \q, \tables, \strategy, \set, \2vl, \vec, \explain, \waterfall, \stats, \pin, \unpin`)
	}
	return false
}

// remoteRun classifies and executes one SQL statement remotely,
// printing the result like the local shell.
func remoteRun(c *service.LineClient, src string) error {
	req := service.Request{Op: service.OpQuery, SQL: src}
	lead := strings.ToUpper(strings.Fields(strings.TrimSpace(src) + " x")[0])
	switch lead {
	case "ANALYZE":
		req = service.Request{Op: service.OpAnalyze, Table: strings.TrimSpace(src[len("analyze"):])}
	case "INSERT", "DELETE", "UPDATE", "CREATE", "DROP":
		req.Op = service.OpExec
	}
	start := time.Now()
	resp, err := c.Do(req)
	if err != nil {
		return err
	}
	elapsed := time.Since(start)
	switch req.Op {
	case service.OpAnalyze:
		fmt.Printf("(statistics collected, %v)\n", elapsed.Round(time.Microsecond))
	case service.OpExec:
		fmt.Printf("(%d rows affected, %v)\n", resp.RowsAffected, elapsed.Round(time.Microsecond))
	default:
		printTable(resp.Columns, resp.Rows)
		fmt.Printf("(%d rows, server %s, round trip %v)\n",
			len(resp.Rows), time.Duration(resp.ElapsedUS)*time.Microsecond,
			elapsed.Round(time.Microsecond))
	}
	return nil
}

// printTable renders a wire result as an aligned text table, mirroring
// the local shell's relation rendering.
func printTable(cols []string, rows [][]any) {
	widths := make([]int, len(cols))
	for i, c := range cols {
		widths[i] = len(c)
	}
	cells := make([][]string, len(rows))
	for r, row := range rows {
		cells[r] = make([]string, len(row))
		for i, v := range row {
			s := renderCell(v)
			cells[r][i] = s
			if i < len(widths) && len(s) > widths[i] {
				widths[i] = len(s)
			}
		}
	}
	var b strings.Builder
	for i, c := range cols {
		fmt.Fprintf(&b, "%-*s  ", widths[i], c)
	}
	b.WriteByte('\n')
	for i := range cols {
		b.WriteString(strings.Repeat("-", widths[i]) + "  ")
	}
	b.WriteByte('\n')
	for _, row := range cells {
		for i, s := range row {
			fmt.Fprintf(&b, "%-*s  ", widths[i], s)
		}
		b.WriteByte('\n')
	}
	fmt.Print(b.String())
}

// renderCell formats one JSON-decoded value. Numbers arrive as float64;
// integral ones print without a decimal point.
func renderCell(v any) string {
	switch x := v.(type) {
	case nil:
		return "NULL"
	case float64:
		if x == float64(int64(x)) {
			return fmt.Sprintf("%d", int64(x))
		}
		return fmt.Sprintf("%g", x)
	default:
		return fmt.Sprintf("%v", x)
	}
}
