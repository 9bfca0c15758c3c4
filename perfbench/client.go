package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"strconv"
	"time"
)

// client is one memcached text-protocol connection. Unlike kv.Client it
// pipelines (many sets before reading the replies, many keys per get),
// which the preload and verify passes need to finish in seconds, and it
// reuses its buffers so the load generator takes little CPU from the
// server it shares the machine with.
type client struct {
	conn net.Conn
	br   *bufio.Reader
	bw   *bufio.Writer
	line []byte
	val  []byte
}

func dial(addr string) (*client, error) {
	conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return nil, fmt.Errorf("dial kvd %s: %w", addr, err)
	}
	return &client{
		conn: conn,
		br:   bufio.NewReaderSize(conn, 64<<10),
		bw:   bufio.NewWriterSize(conn, 64<<10),
	}, nil
}

func (c *client) close() { c.conn.Close() }

// queueSet buffers "set <key> 0 0 <n>" and its data block.
func (c *client) queueSet(key string, val []byte) {
	b := append(c.line[:0], "set "...)
	b = append(b, key...)
	b = append(b, " 0 0 "...)
	b = strconv.AppendInt(b, int64(len(val)), 10)
	b = append(b, "\r\n"...)
	c.line = b
	c.bw.Write(b)
	c.bw.Write(val)
	c.bw.WriteString("\r\n")
}

// queueGet buffers one get command for all keys.
func (c *client) queueGet(keys ...string) {
	c.bw.WriteString("get")
	for _, k := range keys {
		c.bw.WriteByte(' ')
		c.bw.WriteString(k)
	}
	c.bw.WriteString("\r\n")
}

func (c *client) flush() error { return c.bw.Flush() }

func (c *client) readLine() ([]byte, error) {
	line, err := c.br.ReadSlice('\n')
	if err != nil {
		return nil, err
	}
	if len(line) < 2 || line[len(line)-2] != '\r' {
		return nil, fmt.Errorf("kvd: unterminated line %q", line)
	}
	return line[:len(line)-2], nil
}

// readStored reads one set reply.
func (c *client) readStored() error {
	line, err := c.readLine()
	if err != nil {
		return err
	}
	if string(line) != "STORED" {
		return fmt.Errorf("kvd: set answered %q", line)
	}
	return nil
}

var errNoValue = errors.New("kvd: get returned no value")

// readValues reads one get reply, calling fn for each VALUE in order. The
// value slice is only valid during the call.
func (c *client) readValues(fn func(key, val []byte) error) error {
	for {
		line, err := c.readLine()
		if err != nil {
			return err
		}
		if string(line) == "END" {
			return nil
		}
		// VALUE <key> <flags> <bytes>
		f := bytes.Fields(line)
		if len(f) != 4 || string(f[0]) != "VALUE" {
			return fmt.Errorf("kvd: get answered %q", line)
		}
		n, err := strconv.Atoi(string(f[3]))
		if err != nil || n < 0 {
			return fmt.Errorf("kvd: bad VALUE line %q", line)
		}
		key := append([]byte(nil), f[1]...)
		if cap(c.val) < n+2 {
			c.val = make([]byte, n+2)
		}
		v := c.val[:n+2]
		if _, err := io.ReadFull(c.br, v); err != nil {
			return err
		}
		if v[n] != '\r' || v[n+1] != '\n' {
			return fmt.Errorf("kvd: value for %q not CRLF-terminated", key)
		}
		if err := fn(key, v[:n]); err != nil {
			return err
		}
	}
}
