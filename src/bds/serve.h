/**
 * @file
 * Facade: the characterization service — the transport-independent
 * engine and its content-addressed result store (bds::ServeEngine,
 * ResultStore), the line/socket server (bds::ServeServer), the wire
 * request schema (serve/request.h) and the canonical config hashing
 * (bds::runConfigHashHex) cells are keyed by.
 */

#ifndef BDS_BDS_SERVE_H
#define BDS_BDS_SERVE_H

#include "serve/confighash.h"
#include "serve/engine.h"
#include "serve/options.h"
#include "serve/request.h"
#include "serve/server.h"
#include "serve/store.h"

#endif // BDS_BDS_SERVE_H
