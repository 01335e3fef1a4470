package prelude

import (
	"maps"
	"sync"
)

// defaultPreludeText is the built-in PHP trust environment, written in the
// prelude file format so that it exercises the same loader users see. It
// mirrors the channels the paper's WebSSARI prelude covered: HTTP request
// data and database reads are untrusted (database reads cover stored XSS,
// as in the paper's PHP Support Tickets example); SQL, HTML output, command
// execution, and code evaluation are sensitive output channels; the usual
// PHP escaping/casting routines are sanitizers.
const defaultPreludeText = `
# Default WebSSARI prelude for PHP taint analysis.
lattice chain untainted tainted

# --- initial variable types (PHP superglobals and legacy globals) --------
var _GET tainted
var _POST tainted
var _COOKIE tainted
var _REQUEST tainted
var _FILES tainted
var _SERVER tainted
var HTTP_GET_VARS tainted
var HTTP_POST_VARS tainted
var HTTP_COOKIE_VARS tainted
var HTTP_SERVER_VARS tainted
var HTTP_REFERER tainted
var PHP_SELF tainted
var QUERY_STRING tainted
var _SESSION untainted
var GLOBALS untainted

# --- untrusted input channels (UIC postconditions) ------------------------
source getenv tainted
source get_http_vars tainted
source import_request_variables tainted
source file tainted
source fgets tainted
source fread tainted
source file_get_contents tainted
source gzgets tainted
source readdir tainted
# Database reads deliver user-supplied stored data (stored XSS).
source mysql_fetch_array tainted
source mysql_fetch_row tainted
source mysql_fetch_object tainted
source mysql_fetch_assoc tainted
source mysql_result tainted
source pg_fetch_array tainted
source pg_fetch_row tainted
source pg_fetch_object tainted

# --- sensitive output channels (SOC preconditions) -------------------------
# HTML output: cross-site scripting.
sink echo tainted *
sink print tainted *
sink printf tainted *
sink print_r tainted 1
sink vprintf tainted *
sink die tainted *
sink exit tainted *
# SQL construction: SQL injection.
sink mysql_query tainted 1
sink mysql_db_query tainted 2
sink mysql_unbuffered_query tainted 1
sink pg_query tainted *
sink pg_exec tainted *
sink sqlite_query tainted *
# Command execution: arbitrary command injection.
sink exec tainted 1
sink system tainted 1
sink passthru tainted 1
sink popen tainted 1
sink proc_open tainted 1
sink shell_exec tainted 1
# Code evaluation and dynamic inclusion: remote code execution.
sink eval tainted *
sink include tainted *
sink include_once tainted *
sink require tainted *
sink require_once tainted *
sink fopen tainted 1
sink unlink tainted 1
sink header tainted *
sink mail tainted *

# --- sanitization routines -------------------------------------------------
sanitizer htmlspecialchars untainted
sanitizer htmlentities untainted
sanitizer strip_tags untainted
sanitizer addslashes untainted
sanitizer mysql_escape_string untainted
sanitizer mysql_real_escape_string untainted
sanitizer pg_escape_string untainted
sanitizer sqlite_escape_string untainted
sanitizer escapeshellarg untainted
sanitizer escapeshellcmd untainted
sanitizer intval untainted
sanitizer floatval untainted
sanitizer doubleval untainted
sanitizer count untainted
sanitizer strlen untainted
sanitizer md5 untainted
sanitizer sha1 untainted
sanitizer crc32 untainted
sanitizer urlencode untainted
sanitizer rawurlencode untainted
sanitizer base64_encode untainted
sanitizer bin2hex untainted
sanitizer websafe untainted
`

// builtin is the built-in prelude, parsed once; Default hands out copies
// and Builtin the prelude itself.
var builtin = sync.OnceValue(func() *Prelude {
	p, err := Parse("builtin", []byte(defaultPreludeText))
	if err != nil {
		// Unreachable: the built-in text is covered by tests.
		panic(err)
	}
	return p
})

// Default returns the built-in PHP prelude over the two-point taint
// lattice. Each call returns a fresh, independently mutable prelude: a copy
// of the maps of the text parsed once, sharing the immutable lattice and
// each sink's Args slice, which nothing writes.
func Default() *Prelude {
	b := builtin()
	return &Prelude{
		lat:        b.lat,
		sources:    maps.Clone(b.sources),
		sinks:      maps.Clone(b.sinks),
		sanitizers: maps.Clone(b.sanitizers),
		varTypes:   maps.Clone(b.varTypes),
	}
}

// Builtin returns the built-in PHP prelude itself, shared by every
// caller and by concurrent runs: it must be read only. A caller that
// adds definitions takes its own copy with Default.
func Builtin() *Prelude { return builtin() }
