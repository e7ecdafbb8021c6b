(* FALCON command-line tool: key generation, signing and verification
   with a simple text key format.

     dune exec bin/falcon_cli.exe -- keygen -n 512 -s myseed -o key
     dune exec bin/falcon_cli.exe -- sign -k key.sk -m "hello" -o sig.txt
     dune exec bin/falcon_cli.exe -- verify -k key.pk -m "hello" -i sig.txt *)

let ints_to_line a = String.concat " " (Array.to_list (Array.map string_of_int a))

let line_to_ints line =
  Array.of_list (List.map int_of_string (String.split_on_char ' ' (String.trim line)))

let save_secret path (kp : Ntru.Ntrugen.keypair) =
  Cli_common.write_file path
    (Printf.sprintf "falcon-secret n=%d\nf %s\ng %s\nF %s\nG %s\nh %s\n" kp.n
       (ints_to_line kp.f) (ints_to_line kp.g) (ints_to_line kp.big_f)
       (ints_to_line kp.big_g) (ints_to_line kp.h))

let load_secret path : Ntru.Ntrugen.keypair =
  match String.split_on_char '\n' (Cli_common.read_file path) with
  | header :: lines when String.length header > 16 ->
      let n = int_of_string (List.nth (String.split_on_char '=' header) 1) in
      let field tag =
        match
          List.find_opt (fun l -> String.length l > 2 && String.sub l 0 2 = tag ^ " ") lines
        with
        | Some l -> line_to_ints (String.sub l 2 (String.length l - 2))
        | None -> failwith ("missing field " ^ tag)
      in
      {
        n;
        f = field "f";
        g = field "g";
        big_f = field "F";
        big_g = field "G";
        h = field "h";
      }
  | _ -> failwith "malformed secret key file"

let save_public path (pk : Falcon.Scheme.public_key) =
  Cli_common.write_file path
    (Printf.sprintf "falcon-public n=%d\nh %s\n" pk.params.n (ints_to_line pk.h))

let load_public path : Falcon.Scheme.public_key =
  match String.split_on_char '\n' (Cli_common.read_file path) with
  | header :: lines when String.length header > 16 ->
      let n = int_of_string (List.nth (String.split_on_char '=' header) 1) in
      let h =
        match List.find_opt (fun l -> String.length l > 2 && l.[0] = 'h') lines with
        | Some l -> line_to_ints (String.sub l 2 (String.length l - 2))
        | None -> failwith "missing h"
      in
      { Falcon.Scheme.params = Falcon.Params.make n; h }
  | _ -> failwith "malformed public key file"

let hex_of_string s = Keccak.hex s

let string_of_hex h =
  String.init (String.length h / 2) (fun i ->
      Char.chr (int_of_string ("0x" ^ String.sub h (2 * i) 2)))

(* Exit statuses follow the repository-wide convention in Cli_common:
   malformed key/signature files and bad parameters exit with the
   data-error status and a message, never a backtrace.  No subcommand
   takes the attack pipeline's -j/--templates/--log flags. *)

let cmd_keygen n seed out =
  Cli_common.with_errors @@ fun () ->
  let sk, pk = Falcon.Scheme.keygen ~n ~seed in
  save_secret (out ^ ".sk") sk.kp;
  save_public (out ^ ".pk") pk;
  Printf.printf "wrote %s.sk and %s.pk (FALCON-%d)\n" out out n;
  0

let cmd_sign key msg out =
  Cli_common.with_errors @@ fun () ->
  let kp = load_secret key in
  let sk = Falcon.Scheme.secret_of_keypair kp in
  let rng = Prng.of_seed (Printf.sprintf "cli-sign-%f" (Sys.time ())) in
  let sg = Falcon.Scheme.sign ~rng sk msg in
  Cli_common.write_file out
    (Printf.sprintf "falcon-signature\nsalt %s\nbody %s\n" (hex_of_string sg.salt)
       (hex_of_string sg.body));
  Printf.printf "wrote %s (%d bytes of signature body)\n" out (String.length sg.body);
  0

let cmd_verify key msg input =
  Cli_common.with_errors @@ fun () ->
  let pk = load_public key in
  let lines = String.split_on_char '\n' (Cli_common.read_file input) in
  let field tag =
    match
      List.find_opt
        (fun l -> String.length l > String.length tag && String.sub l 0 (String.length tag) = tag)
        lines
    with
    | Some l ->
        string_of_hex
          (String.trim (String.sub l (String.length tag) (String.length l - String.length tag)))
    | None -> failwith ("missing " ^ tag)
  in
  let sg = { Falcon.Scheme.salt = field "salt "; body = field "body " } in
  if Falcon.Scheme.verify pk msg sg then begin
    print_endline "signature OK";
    0
  end
  else begin
    print_endline "signature INVALID";
    1
  end

open Cmdliner

let n_arg =
  Arg.(value & opt int 512 & info [ "n" ] ~docv:"N" ~doc:"Ring degree (power of two).")

let seed_arg =
  Arg.(value & opt string "falcon cli seed" & info [ "s"; "seed" ] ~doc:"Keygen seed.")

let out_arg d = Arg.(value & opt string d & info [ "o"; "out" ] ~doc:"Output path.")
let key_arg = Arg.(required & opt (some string) None & info [ "k"; "key" ] ~doc:"Key file.")
let msg_arg = Arg.(required & opt (some string) None & info [ "m"; "message" ] ~doc:"Message.")
let sig_arg = Arg.(value & opt string "sig.txt" & info [ "i"; "input" ] ~doc:"Signature file.")

let keygen_cmd =
  Cmd.v (Cmd.info "keygen" ~doc:"Generate a FALCON key pair")
    Term.(const cmd_keygen $ n_arg $ seed_arg $ out_arg "key")

let sign_cmd =
  Cmd.v (Cmd.info "sign" ~doc:"Sign a message")
    Term.(const cmd_sign $ key_arg $ msg_arg $ out_arg "sig.txt")

let verify_cmd =
  Cmd.v (Cmd.info "verify" ~doc:"Verify a signature")
    Term.(const cmd_verify $ key_arg $ msg_arg $ sig_arg)

let () =
  let doc = "FALCON post-quantum signatures (Falcon Down reproduction)" in
  exit (Cmd.eval' (Cmd.group (Cmd.info "falcon_cli" ~doc) [ keygen_cmd; sign_cmd; verify_cmd ]))
